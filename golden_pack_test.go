package classpack

import (
	"bytes"
	"io"
	"testing"

	"classpack/internal/core"
)

// goldenPacked lists the committed version-2 and version-3 archives.
// Unlike the version-1 archives they are still written, so they pin the
// writer as well as the reader: a change that altered both sides of the
// format in step would reproduce its own output but not these bytes.
var goldenPacked = []struct {
	name   string // archive under testdata/golden
	corpus string // the corpus it was packed from: "hanoi" or "jess"
	chunk  int    // ChunkClasses; 0 writes version 2
}{
	{"hanoi.v2.cjp", "hanoi", 0},
	{"jess.v2.cjp", "jess", 0},
	{"hanoi.v3c2.cjp", "hanoi", 2}, // 4 chunks, the last one partial
	{"hanoi.v3c4.cjp", "hanoi", 4}, // 2 chunks, the last one partial
	{"jess.v3c16.cjp", "jess", 16}, // 5 chunks, the last one partial
}

// goldenCorpus regenerates the named golden corpus as class file bytes.
func goldenCorpus(t *testing.T, corpus string) [][]byte {
	t.Helper()
	switch corpus {
	case "hanoi":
		return sample(t)
	case "jess":
		_, jess := chaosCorpus(t)
		return filesData(jess)
	}
	t.Fatalf("unknown golden corpus %q", corpus)
	return nil
}

// TestGoldenPackedArchives packs each golden corpus through every pack
// entry point — core and root Pack, and for version 3 core and root
// PackStream — at several worker counts, and requires the committed
// bytes exactly. It then decodes each archive with UnpackOpts and
// UnpackStream and requires the pinned class digests.
func TestGoldenPackedArchives(t *testing.T) {
	for _, g := range goldenPacked {
		t.Run(g.name, func(t *testing.T) {
			want := goldenArchive(t, g.name)
			version := byte(core.Version2)
			if g.chunk > 0 {
				version = core.Version3
			}
			if want[4] != version {
				t.Fatalf("version %d, want %d", want[4], version)
			}
			raw := goldenCorpus(t, g.corpus)
			cfs, err := parseAndStrip(raw, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []int{1, 2, 4} {
				opts := DefaultOptions()
				opts.ChunkClasses = g.chunk
				opts.Concurrency = j
				writers := map[string]func() ([]byte, error){
					"core.Pack": func() ([]byte, error) { return core.Pack(cfs, opts.core()) },
					"Pack":      func() ([]byte, error) { return Pack(raw, &opts) },
				}
				if g.chunk > 0 {
					writers["core.PackStream"] = func() ([]byte, error) {
						var buf bytes.Buffer
						err := core.PackStream(&buf, sliceNext(cfs), opts.core())
						return buf.Bytes(), err
					}
					writers["PackStream"] = func() ([]byte, error) {
						var buf bytes.Buffer
						err := PackStream(&buf, sliceNext(raw), &opts)
						return buf.Bytes(), err
					}
				}
				for name, write := range writers {
					got, err := write()
					if err != nil {
						t.Fatalf("%s j=%d: %v", name, j, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s j=%d: %d bytes differ from the %d golden bytes", name, j, len(got), len(want))
					}
				}

				o := &Options{Concurrency: j}
				files, err := UnpackOpts(want, o)
				if err != nil {
					t.Fatalf("UnpackOpts j=%d: %v", j, err)
				}
				checkGoldenClasses(t, g.corpus, files)
				files = files[:0:0]
				if err := UnpackStream(bytes.NewReader(want), func(f File) error {
					files = append(files, f)
					return nil
				}, o); err != nil {
					t.Fatalf("UnpackStream j=%d: %v", j, err)
				}
				checkGoldenClasses(t, g.corpus, files)
			}
		})
	}
}

// sliceNext returns a PackStream source that yields items in order and
// then io.EOF.
func sliceNext[T any](items []T) func() (T, error) {
	i := 0
	return func() (T, error) {
		if i == len(items) {
			var zero T
			return zero, io.EOF
		}
		i++
		return items[i-1], nil
	}
}
