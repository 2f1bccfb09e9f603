// Package archive implements the baseline container formats the paper
// compares against (§2): jar files (zip archives with per-file DEFLATE
// compression), uncompressed "j0r" archives (zip with stored entries), and
// j0r.gz archives (a stored zip compressed with gzip as a whole, §2.1).
// Output is deterministic: entries carry no timestamps.
package archive

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"classpack/internal/corrupt"
)

// File is one archive member.
type File struct {
	Name string
	Data []byte
}

// Constructing a flate.Writer allocates its full match-finder state
// (hundreds of KB) and dominates the allocation profile on small
// corpora, so writers, readers, and scratch buffers are pooled and
// Reset between uses. All pooled writers use BestCompression — the only
// level this package compresses at — so a recycled writer always
// behaves identically to a fresh one.
var (
	flateWriterPool sync.Pool // *flate.Writer at BestCompression
	flateReaderPool sync.Pool // flateReader
	gzipWriterPool  sync.Pool // *gzip.Writer at BestCompression
	bufferPool      sync.Pool // *bytes.Buffer
)

// flateReader is what flate.NewReader actually returns: a ReadCloser
// that can be Reset onto a new source.
type flateReader interface {
	io.ReadCloser
	flate.Resetter
}

func getFlateWriter(w io.Writer) *flate.Writer {
	if fw, ok := flateWriterPool.Get().(*flate.Writer); ok {
		fw.Reset(w)
		return fw
	}
	fw, err := flate.NewWriter(w, flate.BestCompression)
	if err != nil {
		panic(err) // BestCompression is a valid level
	}
	return fw
}

func putFlateWriter(fw *flate.Writer) { flateWriterPool.Put(fw) }

func getFlateReader(data []byte) flateReader {
	src := bytes.NewReader(data)
	if fr, ok := flateReaderPool.Get().(flateReader); ok {
		if fr.Reset(src, nil) == nil {
			return fr
		}
	}
	return flate.NewReader(src).(flateReader)
}

func putFlateReader(fr flateReader) { flateReaderPool.Put(fr) }

func getBuffer() *bytes.Buffer {
	if b, ok := bufferPool.Get().(*bytes.Buffer); ok {
		b.Reset()
		return b
	}
	return new(bytes.Buffer)
}

// maxPooledBuffer bounds retained scratch capacity so one huge archive
// does not pin its buffer for the life of the process.
const maxPooledBuffer = 4 << 20

func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		bufferPool.Put(b)
	}
}

// pooledDeflater returns its flate.Writer to the pool when the zip
// writer closes the entry.
type pooledDeflater struct{ fw *flate.Writer }

func (d *pooledDeflater) Write(p []byte) (int, error) { return d.fw.Write(p) }

func (d *pooledDeflater) Close() error {
	err := d.fw.Close()
	putFlateWriter(d.fw)
	d.fw = nil
	return err
}

func writeZip(files []File, method uint16) ([]byte, error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	// Maximum compression, matching the paper's gzip usage.
	zw.RegisterCompressor(zip.Deflate, func(w io.Writer) (io.WriteCloser, error) {
		return &pooledDeflater{fw: getFlateWriter(w)}, nil
	})
	for _, f := range files {
		w, err := zw.CreateHeader(&zip.FileHeader{Name: f.Name, Method: method})
		if err != nil {
			return nil, fmt.Errorf("archive: %s: %w", f.Name, err)
		}
		if _, err := w.Write(f.Data); err != nil {
			return nil, fmt.Errorf("archive: %s: %w", f.Name, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJar builds a jar (zip, per-file DEFLATE).
func WriteJar(files []File) ([]byte, error) { return writeZip(files, zip.Deflate) }

// WriteStored builds a "j0r": a jar whose entries are stored uncompressed.
func WriteStored(files []File) ([]byte, error) { return writeZip(files, zip.Store) }

// GzipWhole compresses data as one gzip stream at maximum compression.
func GzipWhole(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	gw, ok := gzipWriterPool.Get().(*gzip.Writer)
	if ok {
		gw.Reset(&buf)
	} else {
		var err error
		if gw, err = gzip.NewWriterLevel(&buf, gzip.BestCompression); err != nil {
			//classpack:vet-allow poolbalance Get missed (fresh pool); there is no writer to return on this path
			return nil, err
		}
	}
	_, werr := gw.Write(data)
	cerr := gw.Close()
	gzipWriterPool.Put(gw)
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	return buf.Bytes(), nil
}

// GunzipWhole decompresses a single gzip stream.
func GunzipWhole(data []byte) ([]byte, error) {
	gr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer gr.Close()
	return io.ReadAll(gr)
}

// WriteJ0rGz builds a j0r.gz: individual files stored uncompressed in a
// jar, the jar gzip'd as a whole (§2.1).
func WriteJ0rGz(files []File) ([]byte, error) {
	stored, err := WriteStored(files)
	if err != nil {
		return nil, err
	}
	return GzipWhole(stored)
}

// ReadJar lists the members of a jar or j0r produced by this package (or
// any zip archive).
func ReadJar(data []byte) ([]File, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	var out []File
	for _, zf := range zr.File {
		payload, err := readMember(zf, math.MaxInt64-1)
		if err != nil {
			return nil, err
		}
		out = append(out, File{Name: zf.Name, Data: payload})
	}
	return out, nil
}

// ReadJarClasses splits a jar into its class members (names ending in
// ".class"), in jar order, and the names of its other members.
// Directory entries (names ending in "/") are neither. Only class
// members are inflated, and their total inflated size is capped at
// budget bytes: a jar whose classes inflate past it fails with an error
// wrapping corrupt.ErrTooLarge, having buffered at most budget+1 bytes
// of them, however much the members claim to expand to.
func ReadJarClasses(data []byte, budget int64) (classes []File, skipped []string, err error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, nil, err
	}
	left := budget
	for _, zf := range zr.File {
		switch {
		case strings.HasSuffix(zf.Name, "/"): // a directory entry
		case strings.HasSuffix(zf.Name, ".class"):
			payload, err := readMember(zf, left)
			if err != nil {
				return nil, nil, err
			}
			left -= int64(len(payload))
			classes = append(classes, File{Name: zf.Name, Data: payload})
		default:
			skipped = append(skipped, zf.Name)
		}
	}
	return classes, skipped, nil
}

// readMember inflates one zip member, failing with an error wrapping
// corrupt.ErrTooLarge as soon as it exceeds limit bytes (limit <
// math.MaxInt64).
func readMember(zf *zip.File, limit int64) ([]byte, error) {
	r, err := zf.Open()
	if err != nil {
		return nil, fmt.Errorf("archive: %s: %w", zf.Name, err)
	}
	defer r.Close()
	payload, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, fmt.Errorf("archive: %s: %w", zf.Name, err)
	}
	if int64(len(payload)) > limit {
		return nil, fmt.Errorf("archive: %s: %w: jar classes inflate past the decode budget (%d bytes left)",
			zf.Name, corrupt.ErrTooLarge, limit)
	}
	return payload, nil
}

// ReadJ0rGz is the inverse of WriteJ0rGz.
func ReadJ0rGz(data []byte) ([]File, error) {
	stored, err := GunzipWhole(data)
	if err != nil {
		return nil, err
	}
	return ReadJar(stored)
}

// countWriter discards its input, keeping only the byte count.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// FlateSize returns the DEFLATE-compressed size of data at maximum
// compression, without gzip framing — the measurement the paper uses when
// it reports zlib sizes excluding header bytes. The compressed bytes are
// counted, never materialized.
func FlateSize(data []byte) int {
	var n countWriter
	fw := getFlateWriter(&n)
	_, werr := fw.Write(data)
	cerr := fw.Close()
	putFlateWriter(fw)
	if werr != nil || cerr != nil {
		return 0
	}
	return int(n)
}

// Flate compresses data with raw DEFLATE at maximum compression.
func Flate(data []byte) ([]byte, error) {
	buf := getBuffer()
	defer putBuffer(buf)
	fw := getFlateWriter(buf)
	_, werr := fw.Write(data)
	cerr := fw.Close()
	putFlateWriter(fw)
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// Inflate decompresses raw DEFLATE data.
func Inflate(data []byte) ([]byte, error) {
	fr := getFlateReader(data)
	buf := getBuffer()
	defer putBuffer(buf)
	if _, err := buf.ReadFrom(fr); err != nil {
		// A reader that saw corrupt input is dropped, not recycled.
		fr.Close()
		//classpack:vet-allow poolbalance a reader that saw corrupt input is dropped, not recycled
		return nil, err
	}
	if err := fr.Close(); err != nil {
		//classpack:vet-allow poolbalance a reader whose Close failed is dropped, not recycled
		return nil, err
	}
	putFlateReader(fr)
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// ErrInflateTooLarge reports a DEFLATE stream that decompressed past the
// caller's cap; inflation stops at the cap rather than materializing the
// rest, which is the bomb guard for length-prefixed formats whose
// declared sizes cannot be trusted.
var ErrInflateTooLarge = errors.New("archive: inflated data exceeds limit")

// InflateLimit decompresses raw DEFLATE data, failing with
// ErrInflateTooLarge as soon as the output would exceed max bytes. At
// most max+1 bytes are ever buffered, regardless of how much the stream
// claims to expand to.
func InflateLimit(data []byte, max int64) ([]byte, error) {
	if max < 0 {
		max = 0
	}
	fr := getFlateReader(data)
	buf := getBuffer()
	defer putBuffer(buf)
	// Read one byte past the cap: hitting it proves the stream is too
	// large without inflating the remainder.
	n, err := buf.ReadFrom(io.LimitReader(fr, max+1))
	if err != nil {
		fr.Close()
		//classpack:vet-allow poolbalance a reader that saw corrupt input is dropped, not recycled
		return nil, err
	}
	if n > max {
		fr.Close()
		//classpack:vet-allow poolbalance a reader mid-stream at the cap is dropped, not recycled
		return nil, ErrInflateTooLarge
	}
	if err := fr.Close(); err != nil {
		//classpack:vet-allow poolbalance a reader whose Close failed is dropped, not recycled
		return nil, err
	}
	putFlateReader(fr)
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}
