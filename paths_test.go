package classpack

import (
	"bytes"
	"fmt"
	"testing"

	"classpack/internal/synth"
)

// TestDecodePathsAgree is the decode engine's safety net: every way to
// read an archive must return the same class files, for every layout
// and worker count. The paths are the eager UnpackOpts, the streaming
// UnpackStream, random access through OpenArchiveBytes and
// ExtractOrdinals, Salvage of the undamaged archive and, for the layouts
// a delta can target, ApplyDelta rebuilding the archive from an older
// release. The oracle is Strip of each corpus file. Four workers
// oversubscribe a small host on purpose, so the class build stage runs
// with more workers than cores.
func TestDecodePathsAgree(t *testing.T) {
	_, jess := chaosCorpus(t)
	hanoi := sample(t)
	corpora := []struct {
		name   string
		golden string
		raw    [][]byte
	}{
		{"hanoi", "hanoi.v1.cjp", hanoi},
		{"jess", "jess.v1.cjp", filesData(jess)},
	}
	for _, c := range corpora {
		want := make([]File, len(c.raw))
		for i, f := range c.raw {
			data, err := Strip(f)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = File{Data: data}
		}
		older, _, err := synth.MutateClasses(c.raw, 0.1, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{-1, 0, 1, 7, 64} {
			var arc, old []byte
			layout := fmt.Sprintf("v3-chunk%d", chunk)
			opts := DefaultOptions()
			opts.ChunkClasses = chunk
			if chunk < 0 {
				layout, arc = "v1", goldenV1(t, c.golden)
			} else {
				if chunk == 0 {
					layout = "v2"
				}
				if arc, err = Pack(c.raw, &opts); err != nil {
					t.Fatal(err)
				}
				if old, err = Pack(older, &opts); err != nil {
					t.Fatal(err)
				}
			}
			for _, j := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/j=%d", c.name, layout, j), func(t *testing.T) {
					o := &Options{Concurrency: j}
					paths := decodePaths(t, arc, o)
					base := paths["UnpackOpts"]
					if len(base) != len(want) {
						t.Fatalf("UnpackOpts: %d classes, want %d", len(base), len(want))
					}
					for i := range base {
						if !bytes.Equal(base[i].Data, want[i].Data) {
							t.Fatalf("UnpackOpts: class %d (%s) differs from Strip of its input", i, base[i].Name)
						}
					}
					for path, got := range paths {
						if err := sameFiles(got, base); err != nil {
							t.Fatalf("%s vs UnpackOpts: %v", path, err)
						}
					}
					if old == nil {
						return
					}
					patch, err := Diff(old, arc, o)
					if err != nil {
						t.Fatal(err)
					}
					rebuilt, err := ApplyDelta(old, patch, o)
					if err != nil {
						t.Fatalf("ApplyDelta: %v", err)
					}
					if !bytes.Equal(rebuilt, arc) {
						t.Fatal("ApplyDelta(old, Diff(old, new)) differs from new")
					}
				})
			}
		}
	}
}

// decodePaths decodes arc through every read path, keyed by path name.
func decodePaths(t *testing.T, arc []byte, o *Options) map[string][]File {
	t.Helper()
	files, err := UnpackOpts(arc, o)
	if err != nil {
		t.Fatalf("UnpackOpts: %v", err)
	}
	out := map[string][]File{"UnpackOpts": files}

	var streamed []File
	err = UnpackStream(bytes.NewReader(arc), func(f File) error {
		streamed = append(streamed, f)
		return nil
	}, o)
	if err != nil {
		t.Fatalf("UnpackStream: %v", err)
	}
	out["UnpackStream"] = streamed

	a, err := OpenArchiveBytes(arc, o)
	if err != nil {
		t.Fatalf("OpenArchiveBytes: %v", err)
	}
	ords := make([]int, a.NumClasses())
	for i := range ords {
		ords[i] = i
	}
	if out["ExtractOrdinals"], err = a.ExtractOrdinals(ords); err != nil {
		t.Fatalf("ExtractOrdinals: %v", err)
	}

	res, err := Salvage(arc, o)
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if res.Lost != 0 || len(res.Damage) != 0 {
		t.Fatalf("Salvage of an undamaged archive: lost %d, damage %v", res.Lost, res.Damage)
	}
	out["Salvage"] = res.Files
	return out
}

// sameFiles reports the first difference between two file lists.
func sameFiles(a, b []File) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d files vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Data, b[i].Data) {
			return fmt.Errorf("file %d: %s vs %s", i, a[i].Name, b[i].Name)
		}
	}
	return nil
}

// filesData returns the bytes of each file.
func filesData(files []File) [][]byte {
	raw := make([][]byte, len(files))
	for i, f := range files {
		raw[i] = f.Data
	}
	return raw
}
