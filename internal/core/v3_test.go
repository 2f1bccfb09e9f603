package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/synth"
)

// v3Opts is the default configuration with chunking enabled.
func v3Opts(chunk int) Options {
	opts := DefaultOptions()
	opts.ChunkClasses = chunk
	return opts
}

// synthStripped generates a stripped synthetic corpus with serialized
// reference bytes.
func synthStripped(t testing.TB, scale float64) ([]*classfile.ClassFile, [][]byte) {
	t.Helper()
	p, err := synth.ProfileByName("202_jess")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, scale)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if want[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
	}
	return cfs, want
}

// checkClasses verifies decoded classes serialize byte-identically to
// want, in order.
func checkClasses(t *testing.T, got []*classfile.ClassFile, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d classes, want %d", len(got), len(want))
	}
	for i, cf := range got {
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatalf("class %d: write: %v", i, err)
		}
		if !bytes.Equal(data, want[i]) {
			t.Fatalf("class %d (%s) differs after v3 round trip", i, cf.ThisClassName())
		}
	}
}

func TestV3RoundTripChunkSizes(t *testing.T) {
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	for _, chunk := range []int{1, 2, 64, 10000} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			packed, err := Pack(cfs, v3Opts(chunk))
			if err != nil {
				t.Fatalf("Pack: %v", err)
			}
			if packed[4] != Version3 {
				t.Fatalf("version byte = %d, want %d", packed[4], Version3)
			}
			back, err := unpackAll(packed)
			if err != nil {
				t.Fatalf("Unpack: %v", err)
			}
			checkClasses(t, back, want)
		})
	}
}

func TestV3ZeroChunkStaysV2(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if packed[4] != Version2 {
		t.Fatalf("ChunkClasses=0 packed version %d, want %d", packed[4], Version2)
	}
}

func TestV3Deterministic(t *testing.T) {
	cfs := buildTestClasses(t)
	opts := v3Opts(2)
	var first []byte
	for _, j := range []int{1, 2, 3, 8, 0} {
		opts.Concurrency = j
		packed, err := Pack(cfs, opts)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if first == nil {
			first = packed
			continue
		}
		if !bytes.Equal(packed, first) {
			t.Fatalf("j=%d produced different v3 bytes", j)
		}
	}
}

func TestV3PackStreamMatchesPack(t *testing.T) {
	cfs := buildTestClasses(t)
	opts := v3Opts(2)
	opts.Concurrency = 4
	packed, err := Pack(cfs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		opts.Concurrency = workers
		var buf bytes.Buffer
		i := 0
		next := func() (*classfile.ClassFile, error) {
			if i == len(cfs) {
				return nil, io.EOF
			}
			cf := cfs[i]
			i++
			return cf, nil
		}
		if err := PackStream(&buf, next, opts); err != nil {
			t.Fatalf("PackStream -j %d: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), packed) {
			t.Fatalf("PackStream -j %d output (%d bytes) differs from Pack (%d bytes)", workers, buf.Len(), len(packed))
		}
	}
}

func TestV3UnpackReader(t *testing.T) {
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	for _, ver := range []struct {
		name string
		opts Options
	}{
		{"v2", DefaultOptions()},
		{"v3", v3Opts(2)},
	} {
		t.Run(ver.name, func(t *testing.T) {
			packed, err := Pack(cfs, ver.opts)
			if err != nil {
				t.Fatal(err)
			}
			var back []*classfile.ClassFile
			err = UnpackReader(bytes.NewReader(packed), UnpackOpts{}, func(cf *classfile.ClassFile) error {
				back = append(back, cf)
				return nil
			})
			if err != nil {
				t.Fatalf("UnpackReader: %v", err)
			}
			checkClasses(t, back, want)
		})
	}
}

func TestV3EmptyArchive(t *testing.T) {
	packed, err := Pack(nil, v3Opts(64))
	if err != nil {
		t.Fatal(err)
	}
	out, err := unpackAll(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty v3 archive decoded %d classes", len(out))
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumClasses() != 0 || len(ix.Chunks) != 0 {
		t.Fatalf("empty archive index: %d classes, %d chunks", ix.NumClasses(), len(ix.Chunks))
	}
}

func TestV3Index(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(2))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if ix.ChunkClasses != 2 {
		t.Fatalf("ChunkClasses = %d, want 2", ix.ChunkClasses)
	}
	if want := (len(cfs) + 1) / 2; len(ix.Chunks) != want {
		t.Fatalf("%d chunks, want %d", len(ix.Chunks), want)
	}
	if ix.NumClasses() != len(cfs) {
		t.Fatalf("index lists %d classes, want %d", ix.NumClasses(), len(cfs))
	}
	for i, cf := range cfs {
		name := cf.ThisClassName()
		if ix.Names[i] != name {
			t.Fatalf("index name %d = %q, want %q", i, ix.Names[i], name)
		}
		chunk := ix.ChunkOf(i)
		if ord := i - ix.Start(chunk); chunk != i/2 || ord != i%2 {
			t.Fatalf("ordinal %d (%q) maps to (%d,%d), want (%d,%d)", i, name, chunk, ord, i/2, i%2)
		}
	}
	// An ordinal past the last class lies in no chunk. (By-name lookup,
	// missing names included, is the Archive's job: see the root
	// package's TestExtractClasses.)
	if chunk := ix.ChunkOf(ix.NumClasses()); chunk != len(ix.Chunks) {
		t.Fatalf("ChunkOf(%d) = %d, want %d (no chunk)", ix.NumClasses(), chunk, len(ix.Chunks))
	}
}

// TestV3ChunkDecodesStandalone pins the core random-access property: a
// chunk body sliced out by the index decodes on its own, with no other
// chunk touched.
func TestV3ChunkDecodesStandalone(t *testing.T) {
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	_, opts, err := ParseHeader(packed[:6])
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for ci, ch := range ix.Chunks {
		body := packed[ch.Off : ch.Off+ch.Len]
		var got []*classfile.ClassFile
		if _, err := DecodeBody(opts, body, true, UnpackOpts{}, func(ord int, cf *classfile.ClassFile) error {
			got = append(got, cf)
			return nil
		}); err != nil {
			t.Fatalf("chunk %d: %v", ci, err)
		}
		checkClasses(t, got, want[ix.Start(ci):ix.Start(ci)+ch.Classes])
	}
}

func TestV3CorruptIndex(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(2))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(b []byte)) {
		t.Run(name, func(t *testing.T) {
			b := bytes.Clone(packed)
			f(b)
			if _, err := ReadIndex(b, UnpackOpts{}); err == nil {
				t.Fatal("ReadIndex accepted a corrupt index")
			} else if _, ok := corrupt.As(err); !ok {
				t.Fatalf("ReadIndex error %T is not a corrupt.Error: %v", err, err)
			}
			if _, err := unpackAll(b); err == nil {
				t.Fatal("Unpack accepted a corrupt index")
			}
		})
	}
	mutate("footer-magic", func(b []byte) { b[len(b)-1] ^= 0xff })
	mutate("footer-length", func(b []byte) { b[len(b)-9] ^= 0xff })
	mutate("blob-bitflip", func(b []byte) { b[ix.blobOff+1] ^= 0x40 })
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 5, footerSize, footerSize + 10, len(packed) - 7} {
			if _, err := ReadIndex(packed[:len(packed)-cut], UnpackOpts{}); err == nil {
				t.Fatalf("ReadIndex accepted an archive truncated by %d bytes", cut)
			}
		}
	})
}

func TestV3BudgetHonored(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	err = UnpackReader(bytes.NewReader(packed), UnpackOpts{MaxDecodedBytes: 64}, func(*classfile.ClassFile) error { return nil })
	if !errors.Is(err, corrupt.ErrTooLarge) {
		t.Fatalf("tiny budget: err = %v, want ErrTooLarge", err)
	}
	if _, err := Salvage(packed, UnpackOpts{MaxClassCount: 1}); err != nil {
		t.Fatalf("Salvage returned a hard error on a capped archive: %v", err)
	}
}

func TestV3ClassCountCap(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	err = UnpackReader(bytes.NewReader(packed), UnpackOpts{MaxClassCount: 1}, func(*classfile.ClassFile) error { return nil })
	if !errors.Is(err, corrupt.ErrTooLarge) {
		t.Fatalf("class cap: err = %v, want ErrTooLarge", err)
	}
}

func TestV3SalvageChunkIsolation(t *testing.T) {
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	names := make(map[string]int, len(cfs))
	for i, cf := range cfs {
		names[cf.ThisClassName()] = i
	}
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle chunk's body.
	victim := 1
	b := bytes.Clone(packed)
	ch := ix.Chunks[victim]
	for off := ch.Off + ch.Len/4; off < ch.Off+ch.Len; off += ch.Len / 4 {
		b[off] ^= 0xa5
	}
	res, err := Salvage(b, UnpackOpts{})
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if res.Version != Version3 {
		t.Fatalf("salvage version = %d, want %d", res.Version, Version3)
	}
	if res.TotalClasses != len(cfs) {
		t.Fatalf("TotalClasses = %d, want %d", res.TotalClasses, len(cfs))
	}
	if len(res.Classes) != len(cfs)-1 {
		t.Fatalf("recovered %d classes, want %d", len(res.Classes), len(cfs)-1)
	}
	// Chunks after the damaged one must recover byte-identically: match
	// by name, since the damaged chunk leaves a gap.
	for _, cf := range res.Classes {
		i, ok := names[cf.ThisClassName()]
		if !ok {
			t.Fatalf("salvage invented class %q", cf.ThisClassName())
		}
		if i == victim {
			t.Fatalf("salvage recovered the damaged class %q", cf.ThisClassName())
		}
		got, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("recovered class %q differs from the clean original", cf.ThisClassName())
		}
	}
	lost := 0
	sawVictim := false
	for _, d := range res.Damage {
		lost += d.ClassesLost
		if d.Chunk == victim {
			sawVictim = true
		}
		if d.Chunk >= 0 && d.Chunk != victim {
			t.Fatalf("damage attributed to intact chunk %d: %v", d.Chunk, d.Err)
		}
	}
	if !sawVictim {
		t.Fatalf("no damage attributed to chunk %d: %+v", victim, res.Damage)
	}
	if lost != 1 {
		t.Fatalf("damage accounts for %d lost classes, want 1", lost)
	}
}

func TestV3SalvageDestroyedIndex(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	b := bytes.Clone(packed)
	for i := len(b) - footerSize; i < len(b); i++ {
		b[i] = 0
	}
	res, err := Salvage(b, UnpackOpts{})
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	// The framing walk drives recovery: a destroyed index costs nothing.
	if len(res.Classes) != len(cfs) {
		t.Fatalf("recovered %d classes with a destroyed index, want %d", len(res.Classes), len(cfs))
	}
	found := false
	for _, d := range res.Damage {
		if d.Chunk == -1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no container-level damage recorded for the destroyed index: %+v", res.Damage)
	}
}

func TestV3LargeCorpusRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("large corpus round trip skipped in -short mode")
	}
	cfs, want := synthStripped(t, 0.5)
	packed, err := Pack(cfs, v3Opts(16))
	if err != nil {
		t.Fatal(err)
	}
	back, err := unpackAll(packed)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, back, want)
}

// writeRecorder is an io.Writer for PackStream that notes, at every
// write, how many times next had been called, and fails the write
// numbered failAt (counting from 0) when failAt is positive.
type writeRecorder struct {
	calls  *int  // next's call count
	at     []int // *calls at each write
	failAt int
}

var errWriterRefuses = errors.New("writer refuses this write")

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.at = append(w.at, *w.calls)
	if w.failAt > 0 && len(w.at) == w.failAt+1 {
		return 0, errWriterRefuses
	}
	return len(p), nil
}

// TestPackStreamContract holds the chunk pipeline to PackStream's
// contract at several worker counts: an error from next or from the
// writer comes back as it is, no goroutine outlives the call, and next
// runs at most workers + 1 chunks ahead of the writer.
func TestPackStreamContract(t *testing.T) {
	cfs, _ := synthStripped(t, 0.5)
	const chunk = 2
	numChunks := (len(cfs) + chunk - 1) / chunk
	if numChunks < 8 {
		t.Fatalf("corpus has %d chunks, want >= 8", numChunks)
	}
	errNext := errors.New("next refuses this class")
	for _, j := range []int{1, 2, 4} {
		opts := v3Opts(chunk)
		opts.Concurrency = j
		base := runtime.NumGoroutine()
		// calls counts next's calls; next fails at class failAt when it
		// is non-negative.
		calls, failAt := 0, -1
		next := func() (*classfile.ClassFile, error) {
			if calls == failAt {
				return nil, errNext
			}
			calls++
			if calls > len(cfs) {
				return nil, io.EOF
			}
			return cfs[calls-1], nil
		}

		// Writes are the header, then a length prefix and a body per
		// chunk, then the tail: chunk i's body is write 2 + 2i.
		rec := &writeRecorder{calls: &calls}
		if err := PackStream(rec, next, opts); err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if calls != len(cfs)+1 {
			t.Fatalf("j=%d: next called %d times for %d classes, want one io.EOF call", j, calls, len(cfs))
		}
		if len(rec.at) != 2+2*numChunks {
			t.Fatalf("j=%d: %d writes, want %d", j, len(rec.at), 2+2*numChunks)
		}
		for i := 0; i < numChunks; i++ {
			if got, bound := rec.at[2+2*i], (i+j+1)*chunk+1; got > bound {
				t.Fatalf("j=%d: next called %d times when chunk %d was written, bound %d", j, got, i, bound)
			}
		}

		calls, failAt = 0, len(cfs)/2+1
		if err := PackStream(io.Discard, next, opts); err != errNext {
			t.Fatalf("j=%d: next failing at class %d: PackStream returned %v, want the next error", j, failAt, err)
		}

		calls, failAt = 0, -1
		rec = &writeRecorder{calls: &calls, failAt: 2 + 2*3}
		if err := PackStream(rec, next, opts); err != errWriterRefuses {
			t.Fatalf("j=%d: failing writer: PackStream returned %v, want the writer error", j, err)
		}

		// A worker can still be between finishing and exiting when the
		// call returns; give the scheduler a moment before calling it a
		// leak.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("j=%d: %d goroutines after PackStream returned, %d before", j, n, base)
		}
	}
}
