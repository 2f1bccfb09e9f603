package classpack

import (
	"runtime"
	"testing"

	"classpack/internal/bench"
)

// Allocation regression tests. The codec's hot paths went through an
// allocation campaign (zero-copy parsing, per-worker arenas, decoder
// caches); these tests pin generous ceilings — several times above the
// measured values — so a future change that reintroduces a per-item
// allocation in a per-file or per-instruction loop trips the test, while
// ordinary drift (map growth heuristics, runtime changes) does not.
//
// Measured at the time of writing (213_javac corpus at benchScale, six
// files, Concurrency 1): pack ≈ 2.5k allocs; unpack ≈ 3.6k allocs and
// ≈ 1.6 MB. Before the campaign the same corpus cost ≈ 28k and ≈ 16k
// allocs. Before the unpacker decoded each class into a reused
// instruction arena, unpack allocated ≈ 4.7 MB, mostly per-instruction
// records in per-method slices grown by doubling; the byte ceiling
// keeps such a fat per-instruction append from coming back unnoticed,
// since it adds bytes rather than allocations.

const (
	packAllocCeiling   = 5000      // measured ~2.5k; ceiling ≈ 2x
	unpackAllocCeiling = 7500      // measured ~3.6k; ceiling ≈ 2x
	unpackBytesCeiling = 3_300_000 // measured ~1.6 MB; ceiling ≈ 2x
)

func allocCorpus(t *testing.T) ([][]byte, []byte) {
	t.Helper()
	c, err := bench.Load("213_javac", benchScale)
	if err != nil {
		t.Fatal(err)
	}
	files := make([][]byte, len(c.StrippedFiles))
	for i, f := range c.StrippedFiles {
		files[i] = f.Data
	}
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	return files, packed
}

func TestPackAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on full corpus")
	}
	files, _ := allocCorpus(t)
	opts := DefaultOptions()
	opts.Concurrency = 1 // serial: no per-worker goroutine noise
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Pack(files, &opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("pack: %.0f allocs per run (%d files)", allocs, len(files))
	if allocs > packAllocCeiling {
		t.Errorf("Pack allocated %.0f times per run, ceiling %d", allocs, packAllocCeiling)
	}
}

func TestUnpackAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on full corpus")
	}
	_, packed := allocCorpus(t)
	unpack := func() {
		if _, err := UnpackOpts(packed, &Options{Concurrency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, unpack)
	t.Logf("unpack: %.0f allocs per run (%d packed bytes)", allocs, len(packed))
	if allocs > unpackAllocCeiling {
		t.Errorf("Unpack allocated %.0f times per run, ceiling %d", allocs, unpackAllocCeiling)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		unpack()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("unpack: %d bytes allocated per run", perRun)
	if perRun > unpackBytesCeiling {
		t.Errorf("Unpack allocated %d bytes per run, ceiling %d", perRun, unpackBytesCeiling)
	}
}
