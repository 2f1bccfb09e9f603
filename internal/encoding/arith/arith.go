// Package arith implements an adaptive order-0 arithmetic coder
// (Witten–Neal–Cleary style). The paper (§5) compares zlib on a
// move-to-front byte stream against an arithmetic coding of the raw MTF
// indices, where an index with probability p costs log2(1/p) bits; this
// package provides that comparator.
package arith

import (
	"fmt"
	"io"
)

const (
	codeBits  = 32
	topValue  = 1<<codeBits - 1
	firstQtr  = topValue/4 + 1
	half      = 2 * firstQtr
	thirdQtr  = 3 * firstQtr
	maxTotal  = 1 << 16 // rescale threshold for the adaptive model
	increment = 32
)

// model is an adaptive frequency model over n symbols: per-symbol
// counts, plus their cumulative counts maintained in a Fenwick tree.
type model struct {
	n    int
	freq []uint32 // count of each symbol
	tree []uint32 // Fenwick tree of counts, 1-based
	sum  uint32
}

func newModel(n int) *model {
	m := &model{n: n, freq: make([]uint32, n), tree: make([]uint32, n+1)}
	for s := 0; s < n; s++ {
		m.add(s, 1)
	}
	return m
}

func (m *model) add(s int, d uint32) {
	m.freq[s] += d
	for i := s + 1; i <= m.n; i += i & -i {
		m.tree[i] += d
	}
	m.sum += d
}

// cumBelow returns the total count of symbols < s.
func (m *model) cumBelow(s int) uint32 {
	var c uint32
	for i := s; i > 0; i -= i & -i {
		c += m.tree[i]
	}
	return c
}

// find returns the symbol whose cumulative interval contains target,
// and the total count of the symbols below it.
func (m *model) find(target uint32) (int, uint32) {
	pos := 0
	step := 1
	for step<<1 <= m.n {
		step <<= 1
	}
	var acc uint32
	for ; step > 0; step >>= 1 {
		if pos+step <= m.n && acc+m.tree[pos+step] <= target {
			pos += step
			acc += m.tree[pos]
		}
	}
	return pos, acc // pos counts the symbols fully below target
}

func (m *model) update(s int) {
	m.add(s, increment)
	if m.sum >= maxTotal {
		m.rescale()
	}
}

// rescale halves every count (keeping each at least 1), in place.
func (m *model) rescale() {
	clear(m.tree)
	m.sum = 0
	for s, c := range m.freq {
		m.freq[s] = 0
		m.add(s, max((c+1)/2, 1))
	}
}

// Encoder arithmetic-codes a symbol stream adaptively.
type Encoder struct {
	m        *model
	low      uint64
	high     uint64
	pending  int
	w        bitAppender
	finished bool
}

type bitAppender struct {
	buf  []byte
	cur  byte
	nCur uint
}

func (b *bitAppender) bit(v int) {
	b.cur = b.cur<<1 | byte(v)
	b.nCur++
	if b.nCur == 8 {
		b.buf = append(b.buf, b.cur)
		b.cur, b.nCur = 0, 0
	}
}

func (b *bitAppender) bytes() []byte {
	if b.nCur > 0 {
		return append(b.buf, b.cur<<(8-b.nCur))
	}
	return b.buf
}

// NewEncoder returns an encoder over an alphabet of n symbols (n ≥ 1).
func NewEncoder(n int) *Encoder {
	return &Encoder{m: newModel(n), low: 0, high: topValue}
}

func (e *Encoder) outputBit(v int) {
	e.w.bit(v)
	for ; e.pending > 0; e.pending-- {
		e.w.bit(1 - v)
	}
}

// Encode codes symbol s and updates the model.
func (e *Encoder) Encode(s int) error {
	if s < 0 || s >= e.m.n {
		return fmt.Errorf("arith: symbol %d out of range [0,%d)", s, e.m.n)
	}
	total := uint64(e.m.sum)
	lo := uint64(e.m.cumBelow(s))
	hi := lo + uint64(e.m.freq[s])
	width := e.high - e.low + 1
	e.high = e.low + width*hi/total - 1
	e.low = e.low + width*lo/total
	for {
		switch {
		case e.high < half:
			e.outputBit(0)
		case e.low >= half:
			e.outputBit(1)
			e.low -= half
			e.high -= half
		case e.low >= firstQtr && e.high < thirdQtr:
			e.pending++
			e.low -= firstQtr
			e.high -= firstQtr
		default:
			e.m.update(s)
			return nil
		}
		e.low <<= 1
		e.high = e.high<<1 | 1
	}
}

// Bytes finalizes the stream and returns the coded bytes. The encoder
// cannot be used after Bytes.
func (e *Encoder) Bytes() []byte {
	if !e.finished {
		e.finished = true
		e.pending++
		if e.low < firstQtr {
			e.outputBit(0)
		} else {
			e.outputBit(1)
		}
	}
	return e.w.bytes()
}

// Decoder decodes a stream produced by Encoder with the same alphabet size.
type Decoder struct {
	m     *model
	low   uint64
	high  uint64
	value uint64
	buf   []byte
	pos   uint // bit position; reads past the end yield zero bits
}

// NewDecoder returns a decoder for buf over an alphabet of n symbols.
func NewDecoder(n int, buf []byte) *Decoder {
	d := &Decoder{m: newModel(n), high: topValue, buf: buf}
	for i := 0; i < codeBits; i++ {
		d.value = d.value<<1 | d.nextBit()
	}
	return d
}

func (d *Decoder) nextBit() uint64 {
	if d.pos >= uint(len(d.buf))*8 {
		d.pos++
		return 0
	}
	b := d.buf[d.pos/8] >> (7 - d.pos%8) & 1
	d.pos++
	return uint64(b)
}

// Decode returns the next symbol. Decoding more symbols than were encoded
// returns arbitrary symbols, not an error: the caller knows the count.
func (d *Decoder) Decode() (int, error) {
	total := uint64(d.m.sum)
	width := d.high - d.low + 1
	target := ((d.value-d.low+1)*total - 1) / width
	if target >= total {
		return 0, io.ErrUnexpectedEOF
	}
	s, below := d.m.find(uint32(target))
	lo := uint64(below)
	hi := lo + uint64(d.m.freq[s])
	d.high = d.low + width*hi/total - 1
	d.low = d.low + width*lo/total
	for {
		switch {
		case d.high < half:
			// nothing
		case d.low >= half:
			d.low -= half
			d.high -= half
			d.value -= half
		case d.low >= firstQtr && d.high < thirdQtr:
			d.low -= firstQtr
			d.high -= firstQtr
			d.value -= firstQtr
		default:
			d.m.update(s)
			return s, nil
		}
		d.low <<= 1
		d.high = d.high<<1 | 1
		d.value = d.value<<1 | d.nextBit()
	}
}

// EncodeAll codes an entire symbol stream over an alphabet of n symbols.
func EncodeAll(n int, syms []int) ([]byte, error) {
	e := NewEncoder(n)
	for _, s := range syms {
		if err := e.Encode(s); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// EncodeBytes codes a byte stream over the 256-symbol alphabet. It
// produces exactly the bytes EncodeAll(256, ...) would for the same
// values, without widening the input to []int.
func EncodeBytes(raw []byte) []byte {
	e := NewEncoder(256)
	for _, b := range raw {
		_ = e.Encode(int(b)) // every byte value is in range
	}
	return e.Bytes()
}

// DecodeAll decodes count symbols from buf.
func DecodeAll(n int, buf []byte, count int) ([]int, error) {
	d := NewDecoder(n, buf)
	out := make([]int, count)
	for i := range out {
		s, err := d.Decode()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// DecodeBytes decodes count bytes coded by EncodeBytes (or by
// EncodeAll over 256 symbols) from buf.
func DecodeBytes(buf []byte, count int) ([]byte, error) {
	d := NewDecoder(256, buf)
	out := make([]byte, count)
	for i := range out {
		s, err := d.Decode()
		if err != nil {
			return nil, err
		}
		out[i] = byte(s)
	}
	return out, nil
}
