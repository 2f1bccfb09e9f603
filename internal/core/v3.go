// Version-3 container: the random-access layout. Classes are grouped
// into chunks of Options.ChunkClasses; each chunk is encoded from reset
// reference models (fresh MTF pools, §5) into its own checked streams
// container — exactly the version-2 body, including the per-stream and
// trailer CRC32Cs — so chunks decode independently and damage stays
// chunk-local. After the chunks comes a seekable index mapping every
// class name to its (chunk, ordinal) with per-chunk byte ranges, so one
// class extracts in O(chunk) decode work and bounded memory.
//
// Layout after the common 6-byte header (magic, version=3, options):
//
//	repeat:  uvarint(len(body)) ‖ body     one checked container per chunk
//	uvarint(0)                             end-of-chunks sentinel
//	index blob                             coding byte ‖ uvarint(rawLen) ‖ payload
//	crc32c(index blob)                     4 bytes, big-endian, Castagnoli
//	uint64be(len(index blob))              8 bytes
//	"CJPX"                                 footer magic
//
// The raw (pre-DEFLATE) index is all varints: chunkClasses, chunk count,
// then per chunk {absolute body offset, body length, class count}, then
// the class count followed by every class name (length-prefixed) in
// archive order. The footer is fixed-width so a reader can find the
// index from the end of the file with two reads.
package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/encoding/varint"
	"classpack/internal/par"
	"classpack/internal/streams"
)

// Section names of the version-3 container structure in corrupt errors.
const (
	sChunks = "chunks" // the chunk length-prefix framing
	sIndex  = "index"  // the trailing class index
	sFooter = "footer" // the fixed-width footer
)

// indexMagic closes every version-3 archive.
var indexMagic = [4]byte{'C', 'J', 'P', 'X'}

// footerSize is the fixed tail: 8-byte big-endian index length plus the
// footer magic. The index blob's CRC32C sits immediately before it.
const footerSize = 8 + 4

// Index blob codings (mirroring the stream codings: DEFLATE or stored).
const (
	idxFlate byte = 0
	idxStore byte = 1
)

// v3CRC is the CRC32C (Castagnoli) table for the index checksum, the
// same polynomial the checked stream containers use.
var v3CRC = crc32.MakeTable(crc32.Castagnoli)

// ChunkInfo locates one chunk: the absolute byte range of its container
// body within the archive and how many classes it holds.
type ChunkInfo struct {
	Off     int64 // body offset from the start of the archive
	Len     int64 // body length in bytes
	Classes int
}

// Index is the version-3 class index: where every chunk lives and which
// classes it holds, in archive order.
type Index struct {
	// ChunkClasses is the encoder's classes-per-chunk knob (the last
	// chunk may hold fewer).
	ChunkClasses int
	Chunks       []ChunkInfo
	// Names are all class binary names in archive order.
	Names []string

	starts  []int          // starts[i] = archive ordinal of chunk i's first class
	byName  map[string]int // name -> archive ordinal (first occurrence)
	blobOff int64          // absolute offset of the index blob
}

// finalize builds the derived lookup tables after Chunks/Names are set.
func (ix *Index) finalize() {
	ix.starts = make([]int, len(ix.Chunks)+1)
	for i, ch := range ix.Chunks {
		ix.starts[i+1] = ix.starts[i] + ch.Classes
	}
	ix.byName = make(map[string]int, len(ix.Names))
	for i, n := range ix.Names {
		if _, ok := ix.byName[n]; !ok {
			ix.byName[n] = i
		}
	}
}

// NumClasses is the total class count across all chunks.
func (ix *Index) NumClasses() int { return len(ix.Names) }

// Ordinal returns the archive ordinal of the named class (its first
// occurrence, should an archive carry duplicates).
func (ix *Index) Ordinal(name string) (int, bool) {
	g, ok := ix.byName[name]
	return g, ok
}

// ChunkOf maps an archive ordinal to the chunk holding it.
func (ix *Index) ChunkOf(ordinal int) int {
	return sort.Search(len(ix.Chunks), func(i int) bool { return ix.starts[i+1] > ordinal })
}

// Start is the archive ordinal of the chunk's first class.
func (ix *Index) Start(chunk int) int { return ix.starts[chunk] }

// Locate resolves a class name to its chunk and ordinal within that
// chunk.
func (ix *Index) Locate(name string) (chunk, ord int, ok bool) {
	g, ok := ix.byName[name]
	if !ok {
		return 0, 0, false
	}
	chunk = ix.ChunkOf(g)
	return chunk, g - ix.starts[chunk], true
}

// EffectiveBudget resolves the decoded-bytes cap. The delta patch
// decoder shares the container's limits through it.
func EffectiveBudget(o UnpackOpts) int64 {
	if o.MaxDecodedBytes <= 0 {
		return streams.DefaultMaxDecodedBytes
	}
	return o.MaxDecodedBytes
}

// EffectiveMaxClasses resolves the class-count cap (see EffectiveBudget).
func EffectiveMaxClasses(o UnpackOpts) int {
	if o.MaxClassCount <= 0 {
		return DefaultMaxClassCount
	}
	return o.MaxClassCount
}

// encodeIndex serializes the index and wraps it in the blob framing
// (coding byte, raw length, payload), DEFLATE-compressed when smaller.
func encodeIndex(ix *Index) []byte {
	var raw []byte
	raw = varint.AppendUint(raw, uint64(ix.ChunkClasses))
	raw = varint.AppendUint(raw, uint64(len(ix.Chunks)))
	for _, ch := range ix.Chunks {
		raw = varint.AppendUint(raw, uint64(ch.Off))
		raw = varint.AppendUint(raw, uint64(ch.Len))
		raw = varint.AppendUint(raw, uint64(ch.Classes))
	}
	raw = varint.AppendUint(raw, uint64(len(ix.Names)))
	for _, n := range ix.Names {
		raw = varint.AppendUint(raw, uint64(len(n)))
		raw = append(raw, n...)
	}
	payload, coding := raw, idxStore
	if comp, err := archive.Flate(raw); err == nil && len(comp) < len(raw) {
		payload, coding = comp, idxFlate
	}
	blob := make([]byte, 0, len(payload)+varint.MaxLen64+1)
	blob = append(blob, coding)
	blob = varint.AppendUint(blob, uint64(len(raw)))
	return append(blob, payload...)
}

// ReadIndex parses the trailing class index of an in-memory version-3
// archive. Failures caused by the bytes are *corrupt.Error values;
// resource-cap violations (an index claiming a decoded size beyond
// MaxDecodedBytes, or more classes than MaxClassCount) additionally
// wrap corrupt.ErrTooLarge.
func ReadIndex(data []byte, o UnpackOpts) (*Index, error) {
	if _, err := header(data); err != nil {
		return nil, err
	}
	if data[4] != Version3 {
		return nil, corrupt.Errorf(sHeader, 4, "version %d archive has no class index", data[4])
	}
	return ReadIndexAt(bytes.NewReader(data), int64(len(data)), o)
}

// ReadIndexAt reads the class index of a version-3 archive through an
// io.ReaderAt without touching any chunk: one read for the fixed-width
// footer, one for the index blob. The caller is expected to have
// validated the 6-byte header (see ParseHeader). Short reads are
// reported as corruption — against a regular file they mean truncation.
func ReadIndexAt(r io.ReaderAt, size int64, o UnpackOpts) (*Index, error) {
	if size < 6+1+footerSize+4+2 {
		return nil, corrupt.Errorf(sFooter, size, "archive too short for a version-3 footer")
	}
	var foot [footerSize]byte
	if _, err := r.ReadAt(foot[:], size-footerSize); err != nil {
		return nil, corrupt.Errorf(sFooter, size-footerSize, "reading footer: %v", err)
	}
	if !bytes.Equal(foot[8:12], indexMagic[:]) {
		return nil, corrupt.Errorf(sFooter, size-4, "bad footer magic %q", foot[8:12])
	}
	blobLen := binary.BigEndian.Uint64(foot[:8])
	// The blob sits between the header + at least one sentinel byte and
	// its own CRC + footer.
	if blobLen < 2 || blobLen > uint64(size-footerSize-4-7) {
		return nil, corrupt.Errorf(sFooter, size-footerSize, "implausible index length %d for %d-byte archive", blobLen, size)
	}
	blobOff := size - footerSize - 4 - int64(blobLen)
	buf := make([]byte, blobLen+4)
	if _, err := r.ReadAt(buf, blobOff); err != nil {
		return nil, corrupt.Errorf(sIndex, blobOff, "reading index: %v", err)
	}
	blob := buf[:blobLen]
	if got, want := crc32.Checksum(blob, v3CRC), binary.BigEndian.Uint32(buf[blobLen:]); got != want {
		return nil, corrupt.Errorf(sIndex, blobOff, "index checksum %08x, want %08x", got, want)
	}
	raw, err := decodeIndexBlob(blob, o)
	if err != nil {
		return nil, err
	}
	ix, err := parseIndexRaw(raw, blobOff-1, o)
	if err != nil {
		return nil, err
	}
	ix.blobOff = blobOff
	return ix, nil
}

// decodeIndexBlob undoes the blob framing: coding byte, declared raw
// length (charged against MaxDecodedBytes before inflation), payload.
func decodeIndexBlob(blob []byte, o UnpackOpts) ([]byte, error) {
	coding := blob[0]
	rawLen, n, err := varint.Uint(blob[1:])
	if err != nil {
		return nil, corrupt.Errorf(sIndex, 1, "index raw length: %v", err)
	}
	payload := blob[1+n:]
	if rawLen > uint64(EffectiveBudget(o)) {
		return nil, corrupt.TooLarge(sIndex, 0,
			"index declares %d decoded bytes, budget %d", rawLen, EffectiveBudget(o))
	}
	switch coding {
	case idxStore:
		if uint64(len(payload)) != rawLen {
			return nil, corrupt.Errorf(sIndex, 0, "stored index is %d bytes, declared %d", len(payload), rawLen)
		}
		return payload, nil
	case idxFlate:
		raw, err := archive.InflateLimit(payload, int64(rawLen))
		if err != nil {
			return nil, corrupt.Errorf(sIndex, 0, "inflate index: %v", err)
		}
		if uint64(len(raw)) != rawLen {
			return nil, corrupt.Errorf(sIndex, 0, "index inflated to %d bytes, declared %d", len(raw), rawLen)
		}
		return raw, nil
	}
	return nil, corrupt.Errorf(sIndex, 0, "unknown index coding %d", coding)
}

// parseIndexRaw parses the decompressed index. chunkLimit is the last
// byte position a chunk body may occupy (the byte before the index
// blob); every declared range is validated against it before use.
func parseIndexRaw(raw []byte, chunkLimit int64, o UnpackOpts) (*Index, error) {
	pos := 0
	next := func(what string) (uint64, error) {
		v, n, err := varint.Uint(raw[pos:])
		if err != nil {
			return 0, corrupt.Errorf(sIndex, int64(pos), "%s: %v", what, err)
		}
		pos += n
		return v, nil
	}
	chunkClasses, err := next("chunk size")
	if err != nil {
		return nil, err
	}
	if chunkClasses > math.MaxInt32 {
		return nil, corrupt.Errorf(sIndex, int64(pos), "implausible chunk size %d", chunkClasses)
	}
	numChunks, err := next("chunk count")
	if err != nil {
		return nil, err
	}
	// Every chunk entry takes at least 3 varint bytes, so a larger count
	// is a lie; the bound also keeps the preallocation proportional to
	// real input.
	if numChunks > uint64(len(raw)-pos)/3+1 {
		return nil, corrupt.Errorf(sIndex, int64(pos),
			"implausible chunk count %d for %d index bytes", numChunks, len(raw))
	}
	maxClasses := EffectiveMaxClasses(o)
	ix := &Index{ChunkClasses: int(chunkClasses), Chunks: make([]ChunkInfo, 0, numChunks)}
	minOff := int64(7) // header plus at least one length-prefix byte
	totalClasses := 0
	for i := uint64(0); i < numChunks; i++ {
		off, err := next("chunk offset")
		if err != nil {
			return nil, err
		}
		length, err := next("chunk length")
		if err != nil {
			return nil, err
		}
		count, err := next("chunk class count")
		if err != nil {
			return nil, err
		}
		if off < uint64(minOff) || off > uint64(chunkLimit) || length > uint64(chunkLimit)-off {
			return nil, corrupt.Errorf(sIndex, int64(pos),
				"chunk %d range [%d,+%d) outside [%d,%d)", i, off, length, minOff, chunkLimit)
		}
		if count == 0 || count > uint64(maxClasses-totalClasses) {
			return nil, corrupt.TooLarge(sIndex, int64(pos),
				"chunk %d class count %d exceeds remaining cap %d", i, count, maxClasses-totalClasses)
		}
		totalClasses += int(count)
		ix.Chunks = append(ix.Chunks, ChunkInfo{Off: int64(off), Len: int64(length), Classes: int(count)})
		minOff = int64(off) + int64(length) + 1 // plus the next length prefix
	}
	numNames, err := next("class count")
	if err != nil {
		return nil, err
	}
	if numNames != uint64(totalClasses) {
		return nil, corrupt.Errorf(sIndex, int64(pos),
			"index lists %d names for %d chunked classes", numNames, totalClasses)
	}
	// Each name entry takes at least its 1-byte length prefix.
	if numNames > uint64(len(raw)-pos) {
		return nil, corrupt.Errorf(sIndex, int64(pos),
			"implausible name count %d for %d index bytes", numNames, len(raw)-pos)
	}
	ix.Names = make([]string, 0, numNames)
	for i := uint64(0); i < numNames; i++ {
		nameLen, err := next("name length")
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(raw)-pos) {
			return nil, corrupt.Errorf(sIndex, int64(pos), "truncated name %d", i)
		}
		ix.Names = append(ix.Names, string(raw[pos:pos+int(nameLen)]))
		pos += int(nameLen)
	}
	if pos != len(raw) {
		return nil, corrupt.Errorf(sIndex, int64(pos), "%d trailing index bytes", len(raw)-pos)
	}
	ix.finalize()
	return ix, nil
}

// errInputEnd stops PackStream's chunk pipeline once next has reported
// io.EOF.
var errInputEnd = errors.New("core: end of input")

// PackStream encodes classfiles supplied one at a time by next (which
// signals the end with io.EOF) into a version-3 archive written to w. It
// is the one writer of the version-3 layout; Pack with a positive
// ChunkClasses runs it over a slice. Chunks are mutually independent
// (each starts from reset models), so the classes flow through a
// pipeline: next fills one chunk at a time, up to Options.Concurrency
// workers encode chunks, and each body is written in archive order as
// soon as it and the chunks before it are done. At most workers + 1
// chunks are held in memory — one at Concurrency 1 — and the output is
// byte-identical for every Concurrency value. An error from next or w
// is returned as it is.
func PackStream(w io.Writer, next func() (*classfile.ClassFile, error), opts Options) error {
	if !opts.Scheme.Decodable() {
		return fmt.Errorf("core: scheme %v has no decoder", opts.Scheme)
	}
	chunkN := opts.ChunkClasses
	if chunkN <= 0 {
		chunkN = DefaultChunkClasses
	}
	hdr := append(append([]byte{}, Magic[:]...), Version3, encodeOptions(opts))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	type chunk struct {
		cfs         []*classfile.ClassFile
		body        []byte
		concurrency int // workers for the chunk's stream trial coding
	}
	ix := &Index{ChunkClasses: chunkN}
	pos := int64(len(hdr))
	var prefix []byte
	eof := false
	_, err := par.Pipeline(opts.Concurrency, math.MaxInt,
		func() *chunk { return new(chunk) },
		func(i int, c *chunk) error {
			c.cfs = c.cfs[:0]
			for len(c.cfs) < chunkN && !eof {
				cf, err := next()
				if err == io.EOF {
					eof = true
					break
				}
				if err != nil {
					return err
				}
				c.cfs = append(c.cfs, cf)
			}
			if len(c.cfs) == 0 {
				return errInputEnd
			}
			// With several chunks in flight each chunk's trial coding
			// runs serially, since nesting worker pools would
			// oversubscribe; an archive whose input ends inside its
			// first chunk keeps the full worker budget inside it.
			c.concurrency = 1
			if i == 0 && eof {
				c.concurrency = opts.Concurrency
			}
			return nil
		},
		func(_, _ int, c *chunk) error {
			copts := opts
			copts.Concurrency = c.concurrency
			var err error
			c.body, err = encodeMonolith(c.cfs, copts)
			return err
		},
		func(_ int, c *chunk) error {
			prefix = varint.AppendUint(prefix[:0], uint64(len(c.body)))
			if _, err := w.Write(prefix); err != nil {
				return err
			}
			pos += int64(len(prefix))
			ix.Chunks = append(ix.Chunks, ChunkInfo{Off: pos, Len: int64(len(c.body)), Classes: len(c.cfs)})
			if _, err := w.Write(c.body); err != nil {
				return err
			}
			pos += int64(len(c.body))
			for _, cf := range c.cfs {
				ix.Names = append(ix.Names, cf.ThisClassName())
			}
			return nil
		})
	if err != errInputEnd {
		return err
	}
	tail := varint.AppendUint(nil, 0)
	blob := encodeIndex(ix)
	tail = append(tail, blob...)
	tail = binary.BigEndian.AppendUint32(tail, crc32.Checksum(blob, v3CRC))
	tail = binary.BigEndian.AppendUint64(tail, uint64(len(blob)))
	tail = append(tail, indexMagic[:]...)
	_, err = w.Write(tail)
	return err
}

// UnpackReader decodes an archive from a plain io.Reader, invoking
// visit as each class completes. A version-3 archive is decoded
// chunk-at-a-time by the chunk walker, holding one chunk in memory, and
// its trailing index is verified after the last chunk. Version-1/2
// archives have no internal framing, so their body is buffered — at most
// MaxDecodedBytes + BodySlack bytes of it — and decoded in place.
// Failures caused by the archive bytes are *corrupt.Error values; I/O
// failures of r surface as corruption too, since a short read from an
// archive source is indistinguishable from truncation.
func UnpackReader(r io.Reader, o UnpackOpts, visit func(*classfile.ClassFile) error) error {
	br := bufio.NewReader(r)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return corrupt.Errorf(sHeader, 0, "reading archive header: %v", err)
	}
	opts, err := header(hdr[:])
	if err != nil {
		return err
	}
	if hdr[4] != Version3 {
		body, err := readAtMost(br, EffectiveBudget(o)+BodySlack, sHeader, 6)
		if err != nil {
			return err
		}
		_, err = DecodeBody(opts, body, hdr[4] != Version1, o, func(_ int, cf *classfile.ClassFile) error {
			return visit(cf)
		})
		return err
	}
	w := newChunkWalker(br, o)
	var names []string
	for {
		body, co, err := w.next()
		if err != nil {
			return err
		}
		if body == nil {
			return w.verifyIndex(names)
		}
		count := 0
		var visitErr error
		db, err := DecodeBody(opts, body, true, co, func(_ int, cf *classfile.ClassFile) error {
			count++
			names = append(names, cf.ThisClassName())
			visitErr = visit(cf)
			return visitErr
		})
		if visitErr != nil {
			return visitErr
		}
		if err != nil {
			return fmt.Errorf("core: unpack chunk %d: %w", len(w.chunks)-1, err)
		}
		w.charge(db, count)
	}
}

// chunkWalker is the one reader of the version-3 chunk framing. It reads
// each length-prefixed chunk body off a byte stream, charging the shared
// decode budget and class cap as chunks are decoded, and stops at the
// zero-length sentinel. The trailing index is then read with a bounded
// read and checked against the chunks the walk observed.
type chunkWalker struct {
	br         *bufio.Reader
	o          UnpackOpts
	pos        int64 // archive offset of the next unread byte
	budget     int64 // decoded bytes left for the remaining chunks
	maxClasses int
	classes    int         // classes decoded so far
	chunks     []ChunkInfo // chunks walked, as the framing placed them
}

// newChunkWalker starts a walk at the first chunk of br, which has
// already consumed the 6-byte archive header.
func newChunkWalker(br *bufio.Reader, o UnpackOpts) *chunkWalker {
	return &chunkWalker{br: br, o: o, pos: 6, budget: EffectiveBudget(o), maxClasses: EffectiveMaxClasses(o)}
}

// next reads the next chunk's length prefix and body, and returns the
// decode options for it: the caller's options with MaxDecodedBytes and
// MaxClassCount cut to what is left of the shared caps. At the
// end-of-chunks sentinel the body is nil. A chunk claiming more bytes
// than the remaining budget can decode to fails before its body is read.
func (w *chunkWalker) next() ([]byte, UnpackOpts, error) {
	ci := len(w.chunks)
	n, size, err := readUvarint(w.br)
	if err != nil {
		return nil, w.o, corrupt.Errorf(sChunks, w.pos, "chunk %d length: %v", ci, err)
	}
	w.pos += int64(size)
	if n == 0 {
		return nil, w.o, nil
	}
	if w.budget < 1 || n > uint64(w.budget)+BodySlack {
		return nil, w.o, corrupt.TooLarge(sChunks, w.pos,
			"chunk %d claims %d bytes against a remaining decode budget of %d", ci, n, w.budget)
	}
	body, err := readBody(w.br, int64(n))
	if err != nil {
		return nil, w.o, corrupt.Errorf(sChunks, w.pos, "chunk %d body: %v", ci, err)
	}
	w.chunks = append(w.chunks, ChunkInfo{Off: w.pos, Len: int64(n)})
	w.pos += int64(n)
	if w.classes >= w.maxClasses {
		return nil, w.o, corrupt.TooLarge(sChunks, w.pos, "class cap %d reached before chunk %d", w.maxClasses, ci)
	}
	co := w.o
	co.MaxDecodedBytes = w.budget
	co.MaxClassCount = w.maxClasses - w.classes
	return body, co, nil
}

// charge records what the chunk next last returned decoded to — its
// class count and wire-stream bytes — against the shared caps.
func (w *chunkWalker) charge(decoded int64, classes int) {
	w.budget -= decoded
	w.classes += classes
	w.chunks[len(w.chunks)-1].Classes = classes
}

// verifyIndex reads everything after the sentinel — index blob, CRC and
// footer, at most MaxDecodedBytes + BodySlack + footer bytes of it — and
// checks it against the walk: the index must list exactly the chunks the
// framing held, and names, the classes decoded in archive order.
func (w *chunkWalker) verifyIndex(names []string) error {
	tail, err := readAtMost(w.br, EffectiveBudget(w.o)+BodySlack+footerSize+4, sIndex, w.pos)
	if err != nil {
		return err
	}
	ix, err := ReadIndexAt(tailAt{tail, w.pos}, w.pos+int64(len(tail)), w.o)
	if err != nil {
		return err
	}
	if ix.blobOff != w.pos {
		return corrupt.Errorf(sChunks, w.pos, "%d stray bytes between chunks and index", ix.blobOff-w.pos)
	}
	if len(ix.Chunks) != len(w.chunks) || len(ix.Names) != len(names) {
		return corrupt.Errorf(sIndex, -1,
			"index lists %d chunks / %d classes, archive held %d / %d",
			len(ix.Chunks), len(ix.Names), len(w.chunks), len(names))
	}
	for i, ch := range ix.Chunks {
		if ch != w.chunks[i] {
			return corrupt.Errorf(sIndex, -1,
				"index places chunk %d at [%d,+%d) with %d classes, archive held [%d,+%d) with %d",
				i, ch.Off, ch.Len, ch.Classes, w.chunks[i].Off, w.chunks[i].Len, w.chunks[i].Classes)
		}
	}
	for i, n := range ix.Names {
		if n != names[i] {
			return corrupt.Errorf(sIndex, -1, "index names class %d %q, archive decoded %q", i, n, names[i])
		}
	}
	return nil
}

// tailAt serves archive offsets from base on out of the archive's tail,
// read into memory: ReadIndexAt over it parses an index that was read
// sequentially.
type tailAt struct {
	tail []byte
	base int64
}

func (t tailAt) ReadAt(p []byte, off int64) (int, error) {
	if off < t.base {
		return 0, corrupt.Errorf(sIndex, off, "index starts before the end-of-chunks sentinel at %d", t.base)
	}
	return bytes.NewReader(t.tail).ReadAt(p, off-t.base)
}

// readAtMost reads r to its end, failing with corrupt.ErrTooLarge as
// soon as more than limit bytes arrive: a stream cannot make a reader
// buffer more than the decode budget allows. section and off place the
// failure in the archive.
func readAtMost(r io.Reader, limit int64, section string, off int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, corrupt.Errorf(section, off, "reading archive: %v", err)
	}
	if int64(len(data)) > limit {
		return nil, corrupt.TooLarge(section, off, "archive continues past the %d bytes the decode budget allows", limit)
	}
	return data, nil
}

// readUvarint reads an unsigned varint byte-by-byte.
func readUvarint(br *bufio.Reader) (v uint64, n int, err error) {
	var shift uint
	for i := 0; ; i++ {
		if i >= varint.MaxLen64 {
			return 0, 0, varint.ErrOverflow
		}
		c, err := br.ReadByte()
		if err != nil {
			return 0, 0, err
		}
		if c < 0x80 {
			if i == varint.MaxLen64-1 && c > 1 {
				return 0, 0, varint.ErrOverflow
			}
			return v | uint64(c)<<shift, i + 1, nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
}

// readBody reads exactly n bytes, growing the buffer with the bytes
// actually received rather than trusting the declared length with one
// up-front allocation — a truncated stream fails having allocated only
// what arrived.
func readBody(br *bufio.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, br, n); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
