package classpack

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
	"sync"

	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/corrupt"
	"classpack/internal/strip"
)

// ErrClassNotFound is returned (wrapped) by Archive.ExtractClass and
// ExtractClasses when the archive holds no class of the requested name.
var ErrClassNotFound = errors.New("classpack: class not found in archive")

// ErrAmbiguousClass is returned (wrapped) by Archive.ExtractClass and
// ExtractClasses when the requested name occurs more than once in the
// archive, so "the class of that name" is not well defined. Address each
// occurrence by ordinal instead: SelectOrdinals returns every match and
// ExtractOrdinals extracts them, exactly as a full Unpack would.
var ErrAmbiguousClass = errors.New("classpack: class name occurs more than once in archive")

// Archive is a random-access view of a packed archive. For a version-3
// archive it reads only the 6-byte header and the trailing class index
// at open; class bodies decode lazily, one chunk at a time, when
// extracted — so serving one class from an N-class archive costs
// O(chunk) decode work and memory, not O(N). Version-1/2 archives have
// no internal framing, so they are decoded eagerly at open and served
// from memory.
//
// An Archive is safe for concurrent use. It retains the io.ReaderAt.
type Archive struct {
	mu sync.Mutex

	r       *countingReaderAt
	size    int64
	version byte
	copts   core.Options
	uo      core.UnpackOpts

	ix     *core.Index // version 3 only
	names  []string    // class binary names in archive order
	byName map[string]int
	dup    map[string]bool // names occurring more than once (usually nil)

	files []File // version 1/2: eager decode of the whole archive

	cachedChunk int // last decoded chunk (-1 = none)
	cachedFiles []File

	decoded int64
}

// countingReaderAt counts the bytes actually requested from the
// underlying reader, so tests (and curious callers) can observe that
// lazy extraction reads O(chunk) of the archive.
type countingReaderAt struct {
	r io.ReaderAt
	n int64 // accessed under Archive.mu or before the Archive escapes
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n += int64(n)
	return n, err
}

// OpenArchive opens a packed archive for random access over an
// io.ReaderAt of the given size. Only Concurrency, MaxDecodedBytes and
// MaxClassCount of opts are honored (coding choices travel in the
// archive); MaxDecodedBytes bounds each chunk decode. A nil opts uses
// defaults. Failures caused by the archive bytes are *CorruptError
// values or wrap one.
func OpenArchive(r io.ReaderAt, size int64, opts *Options) (*Archive, error) {
	uo := opts.unpackOpts()
	if err := checkConcurrency(uo.Concurrency); err != nil {
		return nil, err
	}
	cr := &countingReaderAt{r: r}
	var hdr [6]byte
	if _, err := cr.ReadAt(hdr[:], 0); err != nil {
		return nil, corrupt.Errorf("header", 0, "reading archive header: %v", err)
	}
	ver, copts, err := core.ParseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	a := &Archive{r: cr, size: size, version: ver, copts: copts, uo: uo, cachedChunk: -1}
	if ver != core.Version3 {
		// No chunk framing to seek over: decode the whole body once. The
		// caller-supplied size is untrusted until bytes actually arrive,
		// so charge it against the decode budget before allocating — a
		// hostile size over a tiny reader must fail in O(1) memory, like
		// every other declared length on the decode path — and then read
		// incrementally, growing the buffer with the bytes actually
		// received rather than trusting size with one up-front make.
		if size < 6 {
			return nil, corrupt.Errorf("container", size, "declared size %d is smaller than the header", size)
		}
		if budget := core.EffectiveBudget(uo); size-6 > budget+core.BodySlack {
			return nil, corrupt.TooLarge("container", 0,
				"%d-byte archive exceeds the %d-byte decode budget", size, budget)
		}
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, io.NewSectionReader(cr, 0, size)); err != nil {
			return nil, corrupt.Errorf("container", 0, "reading archive: %v", err)
		}
		data := buf.Bytes()
		if int64(len(data)) != size {
			return nil, corrupt.Errorf("container", int64(len(data)),
				"archive is %d bytes, caller declared %d", len(data), size)
		}
		files, decoded, err := decodeFiles(copts, data[6:], ver != core.Version1, uo)
		if err != nil {
			return nil, err
		}
		a.files = files
		a.decoded = decoded
		a.names = make([]string, len(files))
		for i, f := range files {
			a.names[i] = strings.TrimSuffix(f.Name, ".class")
		}
	} else {
		ix, err := core.ReadIndexAt(cr, size, uo)
		if err != nil {
			return nil, err
		}
		a.ix = ix
		a.names = ix.Names
	}
	a.byName = make(map[string]int, len(a.names))
	for i, n := range a.names {
		if _, ok := a.byName[n]; ok {
			// Duplicate entries make by-name lookup ambiguous; remember
			// them so ExtractClass can refuse instead of silently serving
			// the first occurrence's bytes for every request.
			if a.dup == nil {
				a.dup = make(map[string]bool)
			}
			a.dup[n] = true
			continue
		}
		a.byName[n] = i
	}
	return a, nil
}

// ordinalOf resolves a class name to its archive ordinal, failing with
// ErrClassNotFound for absent names and ErrAmbiguousClass for names the
// archive carries more than once.
func (a *Archive) ordinalOf(name string) (int, error) {
	n := trimClass(name)
	g, ok := a.byName[n]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrClassNotFound, name)
	}
	if a.dup[n] {
		return 0, fmt.Errorf("%w: %q (use SelectOrdinals + ExtractOrdinals to address each occurrence)",
			ErrAmbiguousClass, name)
	}
	return g, nil
}

// OpenArchiveBytes is OpenArchive over an in-memory archive.
func OpenArchiveBytes(data []byte, opts *Options) (*Archive, error) {
	return OpenArchive(bytes.NewReader(data), int64(len(data)), opts)
}

// decodeFiles decodes one container body into serialized class files
// and reports the decoded wire-stream bytes.
func decodeFiles(copts core.Options, body []byte, checked bool, uo core.UnpackOpts) ([]File, int64, error) {
	var files []File
	decoded, err := core.DecodeBody(copts, body, checked, uo, func(_ int, cf *classfile.ClassFile) error {
		f, err := fileOf(cf)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		return nil, decoded, err
	}
	return files, decoded, nil
}

// Version is the archive's container version (1, 2 or 3).
func (a *Archive) Version() byte { return a.version }

// NumClasses is the number of classes in the archive.
func (a *Archive) NumClasses() int { return len(a.names) }

// ClassNames returns every class binary name in archive order.
func (a *Archive) ClassNames() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// ChunkClasses is the archive's classes-per-chunk (0 for version 1/2).
func (a *Archive) ChunkClasses() int {
	if a.ix == nil {
		return 0
	}
	return a.ix.ChunkClasses
}

// ChunkSummary describes one chunk without decoding it.
type ChunkSummary struct {
	Classes         int
	CompressedBytes int64
}

// Chunks summarizes the archive's chunks; nil for version 1/2.
func (a *Archive) Chunks() []ChunkSummary {
	if a.ix == nil {
		return nil
	}
	out := make([]ChunkSummary, len(a.ix.Chunks))
	for i, ch := range a.ix.Chunks {
		out[i] = ChunkSummary{Classes: ch.Classes, CompressedBytes: ch.Len}
	}
	return out
}

// BytesRead is the total bytes requested from the underlying reader so
// far — header, index, and the chunks extraction actually touched.
func (a *Archive) BytesRead() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.r.n
}

// DecodedBytes is the total decoded wire-stream bytes materialized so
// far across all chunk decodes (what MaxDecodedBytes budgets per
// chunk). Extracting one class from a fresh version-3 archive decodes
// only its containing chunk, and this counter proves it.
func (a *Archive) DecodedBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.decoded
}

// trimClass strips an optional ".class" suffix, so callers can use
// either the binary name or the jar member name.
func trimClass(name string) string { return strings.TrimSuffix(name, ".class") }

// ExtractClass returns the named class's serialized bytes (the same
// bytes a full Unpack would produce for it). The name is the binary
// name, with or without a ".class" suffix. For a version-3 archive only
// the containing chunk is decoded; the last decoded chunk is cached, so
// iterating classes in archive order decodes each chunk once. A missing
// class reports an error wrapping ErrClassNotFound; a name the archive
// carries more than once reports one wrapping ErrAmbiguousClass.
func (a *Archive) ExtractClass(name string) ([]byte, error) {
	g, err := a.ordinalOf(name)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.fileAt(g)
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}

// fileAt returns the serialized file for an archive ordinal, decoding
// (and caching) its chunk if needed. Caller holds a.mu.
func (a *Archive) fileAt(g int) (File, error) {
	if a.ix == nil {
		return a.files[g], nil
	}
	ci := a.ix.ChunkOf(g)
	files, err := a.chunkFiles(ci)
	if err != nil {
		return File{}, err
	}
	return files[g-a.ix.Start(ci)], nil
}

// chunkFiles decodes chunk ci (or returns the cached decode). Caller
// holds a.mu.
func (a *Archive) chunkFiles(ci int) ([]File, error) {
	if ci == a.cachedChunk {
		return a.cachedFiles, nil
	}
	ch := a.ix.Chunks[ci]
	body := make([]byte, ch.Len)
	if _, err := a.r.ReadAt(body, ch.Off); err != nil {
		return nil, corrupt.Errorf("chunks", ch.Off, "reading chunk %d: %v", ci, err)
	}
	start := a.ix.Start(ci)
	files, decoded, err := decodeFiles(a.copts, body, true, a.uo)
	a.decoded += decoded
	if err != nil {
		return nil, fmt.Errorf("classpack: chunk %d: %w", ci, err)
	}
	if len(files) != ch.Classes {
		return nil, corrupt.Errorf("index", -1, "chunk %d holds %d classes, index says %d", ci, len(files), ch.Classes)
	}
	for i, f := range files {
		if trimClass(f.Name) != a.names[start+i] {
			return nil, corrupt.Errorf("index", -1, "chunk %d class %d is %q, index disagrees", ci, i, trimClass(f.Name))
		}
	}
	a.cachedChunk, a.cachedFiles = ci, files
	return files, nil
}

// ExtractClasses extracts the named classes, returned in input order.
// Chunks are decoded in ascending order, each at most once per call, so
// a subset clustered in one chunk costs one chunk decode regardless of
// subset size. Names the archive carries more than once report an error
// wrapping ErrAmbiguousClass (see ExtractOrdinals).
func (a *Archive) ExtractClasses(names []string) ([]File, error) {
	ords := make([]int, len(names))
	for i, name := range names {
		g, err := a.ordinalOf(name)
		if err != nil {
			return nil, err
		}
		ords[i] = g
	}
	return a.ExtractOrdinals(ords)
}

// ExtractOrdinals extracts classes by archive ordinal (0-based position
// in archive order, the order ClassNames reports), returned in input
// order. Ordinals address every class unambiguously — including
// duplicate-named entries, which by-name extraction refuses — so
// extracting 0..NumClasses-1 reproduces a full Unpack exactly. Chunks
// decode in ascending order, each at most once per call.
func (a *Archive) ExtractOrdinals(ords []int) ([]File, error) {
	for _, g := range ords {
		if g < 0 || g >= len(a.names) {
			return nil, fmt.Errorf("classpack: ordinal %d out of range [0,%d)", g, len(a.names))
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]File, len(ords))
	if a.ix == nil {
		for i, g := range ords {
			out[i] = a.files[g]
		}
		return out, nil
	}
	// Resolve chunk by chunk in ascending order so each chunk is decoded
	// at most once even when the request order jumps around.
	byChunk := make(map[int][]int) // chunk -> positions in the request
	maxChunk := 0
	for i, g := range ords {
		ci := a.ix.ChunkOf(g)
		byChunk[ci] = append(byChunk[ci], i)
		if ci > maxChunk {
			maxChunk = ci
		}
	}
	for ci := 0; ci <= maxChunk; ci++ {
		positions, ok := byChunk[ci]
		if !ok {
			continue
		}
		files, err := a.chunkFiles(ci)
		if err != nil {
			return nil, err
		}
		for _, i := range positions {
			out[i] = files[ords[i]-a.ix.Start(ci)]
		}
	}
	return out, nil
}

// Select returns the archive's class names (in archive order) matching
// any of the given patterns. A pattern containing path.Match
// metacharacters is matched against the binary name ("java/util/*",
// "com/acme/**" is NOT supported — path.Match is single-star); any
// other pattern is an exact binary name, with or without ".class".
// A malformed pattern is an error; an empty result is not. An archive
// with duplicate entries yields the duplicated name once per occurrence;
// pass the result to ExtractOrdinals via SelectOrdinals (not
// ExtractClasses, which refuses ambiguous names) to extract such sets.
func (a *Archive) Select(patterns ...string) ([]string, error) {
	ords, err := a.SelectOrdinals(patterns...)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, g := range ords {
		out = append(out, a.names[g])
	}
	return out, nil
}

// SelectOrdinals is Select returning archive ordinals instead of names:
// every class matching any pattern, in archive order, one ordinal per
// occurrence. Feed the result to ExtractOrdinals; unlike name-keyed
// extraction this round-trips archives with duplicate entries, matching
// what a full Unpack produces for them.
func (a *Archive) SelectOrdinals(patterns ...string) ([]int, error) {
	exact := make(map[string]bool)
	var globs []string
	for _, p := range patterns {
		if strings.ContainsAny(p, "*?[\\") {
			// Validate the pattern up front so a bad one fails loudly
			// rather than silently matching nothing.
			if _, err := path.Match(p, ""); err != nil {
				return nil, fmt.Errorf("classpack: pattern %q: %w", p, err)
			}
			globs = append(globs, p)
			continue
		}
		exact[trimClass(p)] = true
	}
	var out []int
	for i, name := range a.names {
		if exact[name] {
			out = append(out, i)
			continue
		}
		for _, g := range globs {
			if ok, _ := path.Match(g, name); ok {
				out = append(out, i)
				break
			}
		}
	}
	return out, nil
}

// PackStream packs class files supplied one at a time by next — which
// returns io.EOF to finish — writing a version-3 archive to w. It is the
// streaming counterpart of Pack for inputs too large to materialize, and
// the same writer: the output is byte-identical to Pack of the same
// files with the same ChunkClasses. Files are parsed as next returns
// them, and chunks are encoded on up to Concurrency workers and written
// in order, so at most workers + 1 chunks are held in memory — one at
// Concurrency 1. A nil opts (or ChunkClasses <= 0) chunks every 64
// classes. An error from next or w is returned as it is.
func PackStream(w io.Writer, next func() ([]byte, error), opts *Options) error {
	c := opts.core()
	if err := checkConcurrency(c.Concurrency); err != nil {
		return err
	}
	var scratch strip.Scratch
	i := 0
	return core.PackStream(w, func() (*classfile.ClassFile, error) {
		raw, err := next()
		if err != nil {
			return nil, err // io.EOF terminates cleanly
		}
		cf, err := classfile.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("classpack: file %d: %w", i, err)
		}
		if err := strip.ApplyScratch(cf, strip.Options{}, &scratch); err != nil {
			return nil, fmt.Errorf("classpack: file %d: %w", i, err)
		}
		i++
		return cf, nil
	}, c)
}

// UnpackStream decodes an archive from an io.Reader, invoking visit
// with each class file as it completes. The archive format is
// sequential, so an eager class loader (§11 of the paper) can define
// each class the moment it arrives; order the input superclass-first
// (see OrderForEagerLoading) so no definition blocks. A version-3
// archive is decoded one chunk at a time off its length-prefix framing
// — the whole archive is never materialized — with the trailing index
// verified after the last chunk, so a damaged index is reported after
// every class has been visited. Version-1/2 archives are buffered and
// decoded in place. Either way at most MaxDecodedBytes plus a small
// slack is read into one buffer; longer input fails with ErrTooLarge.
// A nil opts uses defaults. A visit error aborts and is returned
// verbatim. For an in-memory archive pass bytes.NewReader(data).
func UnpackStream(r io.Reader, visit func(File) error, opts *Options) error {
	uo := opts.unpackOpts()
	if err := checkConcurrency(uo.Concurrency); err != nil {
		return err
	}
	return core.UnpackReader(r, uo, func(cf *classfile.ClassFile) error {
		f, err := fileOf(cf)
		if err != nil {
			return err
		}
		return visit(f)
	})
}
