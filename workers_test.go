package classpack

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/faultinject"
	"classpack/internal/streams"
)

// workerLevels are the worker counts TestUnpackWorkersAgree compares:
// the serial path and build pools smaller than, equal to and larger
// than the class pipeline's in-flight bound.
var workerLevels = []int{1, 2, 4, 8}

// TestUnpackWorkersAgree pins that the worker count is invisible in
// every outcome of decoding a damaged archive: the error UnpackOpts and
// UnpackStream return (text included) and everything Salvage recovers
// and reports. Class decoding overlaps the serial wire decode with
// parallel build and renumber workers, so a failure at class k can be
// met while later classes are already decoded and earlier ones are
// still being built; the caller must still see the serial outcome.
func TestUnpackWorkersAgree(t *testing.T) {
	v2, _ := chaosCorpus(t)
	v3, _ := chaosCorpusV3(t)
	archives := []struct {
		name string
		data []byte
	}{
		// Version 1 carries no checksums, so its damage surfaces
		// mid-decode in UnpackOpts as well as in Salvage.
		{"v1", goldenV1(t, "jess.v1.cjp")},
		{"v2", v2},
		{"v3", v3},
	}
	midArchive := 0 // damaged archives where decoding failed after class 0
	for _, a := range archives {
		faults := workerFaults(t, a.data)
		for _, fault := range faults {
			damaged := fault.Apply(a.data)
			var want workerOutcome
			for _, j := range workerLevels {
				got := decodeOutcome(t, damaged, j)
				if j == 1 {
					want = got
					if got.midArchive {
						midArchive++
					}
					continue
				}
				if diff := got.diff(want); diff != "" {
					t.Fatalf("%s/%s: j=%d differs from j=1: %s", a.name, fault.Name(), j, diff)
				}
			}
		}
	}
	if midArchive == 0 {
		t.Fatal("no fault stopped decoding after the first class; the test exercises nothing in flight")
	}
	t.Logf("%d damaged archives stopped decoding mid-archive", midArchive)

	t.Run("visit-error", func(t *testing.T) {
		for _, a := range archives {
			checkVisitError(t, a.name, a.data)
		}
	})
}

// workerFaults returns the faults TestUnpackWorkersAgree applies to
// data: a bit flip and a truncation at a sample of section payloads (for
// containers whose directory parses) plus seeded random faults.
func workerFaults(t *testing.T, data []byte) []faultinject.Fault {
	t.Helper()
	var faults []faultinject.Fault
	stride, random := 4, 8
	if testing.Short() {
		stride, random = 12, 3
	}
	if sections, err := streams.Sections(data[6:], data[4] != core.Version1); err == nil && data[4] != core.Version3 {
		for si := 0; si < len(sections); si += stride {
			off := 6 + int(sections[si].Off)
			faults = append(faults,
				faultinject.BitFlip{Off: off + 1, Bit: 5},
				faultinject.Truncate{Off: off + int(sections[si].Len)/2})
		}
	}
	plan := faultinject.NewPlan(int64(len(data)))
	for range random {
		faults = append(faults, plan.Next(len(data)))
	}
	return faults
}

// workerOutcome is everything the decode entry points report about one
// archive at one worker count, reduced to comparable strings.
type workerOutcome struct {
	unpack, stream, salvage, coreSalvage string
	midArchive                           bool // decoding stopped after class 0
}

func (o workerOutcome) diff(want workerOutcome) string {
	for _, c := range []struct{ name, got, want string }{
		{"UnpackOpts", o.unpack, want.unpack},
		{"UnpackStream", o.stream, want.stream},
		{"Salvage", o.salvage, want.salvage},
		{"core.Salvage", o.coreSalvage, want.coreSalvage},
	} {
		if c.got != c.want {
			return fmt.Sprintf("%s:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
	return ""
}

func decodeOutcome(t *testing.T, data []byte, j int) workerOutcome {
	t.Helper()
	var o workerOutcome
	opts := &Options{Concurrency: j}
	files, err := UnpackOpts(data, opts)
	o.unpack = filesOrError(files, err)

	var streamed []File
	err = UnpackStream(bytes.NewReader(data), func(f File) error {
		streamed = append(streamed, f)
		return nil
	}, opts)
	o.stream = filesOrError(streamed, err)

	res, err := Salvage(data, opts)
	if err != nil {
		o.salvage = "error: " + err.Error()
	} else {
		o.salvage = fmt.Sprintf("total %d recovered %d lost %d damage %+v files %s",
			res.TotalClasses, res.Recovered, res.Lost, res.Damage, filesDigest(res.Files))
	}

	cres, err := core.Salvage(data, core.UnpackOpts{Concurrency: j})
	if err != nil {
		o.coreSalvage = "error: " + err.Error()
		return o
	}
	var b strings.Builder
	fmt.Fprintf(&b, "total %d", cres.TotalClasses)
	lost := 0
	for _, d := range cres.Damage {
		fmt.Fprintf(&b, " [chunk %d lost %d: %v]", d.Chunk, d.ClassesLost, d.Err)
		lost += d.ClassesLost
	}
	h := sha256.New()
	for _, cf := range cres.Classes {
		raw, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(raw)
	}
	fmt.Fprintf(&b, " classes %d %x", len(cres.Classes), h.Sum(nil))
	o.coreSalvage = b.String()
	o.midArchive = lost > 0 && len(cres.Classes) > 0
	return o
}

func filesOrError(files []File, err error) string {
	if err != nil {
		return fmt.Sprintf("error after %d files: %v", len(files), err)
	}
	return filesDigest(files)
}

func filesDigest(files []File) string {
	h := sha256.New()
	for _, f := range files {
		h.Write([]byte(f.Name))
		h.Write(f.Data)
	}
	return fmt.Sprintf("%d files %x", len(files), h.Sum(nil))
}

// checkVisitError makes visit fail mid-archive at -j 4: the caller must
// get that error itself, visit must have seen exactly the classes before
// it, and no decoding goroutine may outlive the call.
func checkVisitError(t *testing.T, name string, data []byte) {
	t.Helper()
	clean, err := UnpackOpts(data, &Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	stopAt := len(clean) / 2
	errStop := errors.New("visit refuses this class")
	base := runtime.NumGoroutine()
	visited := 0
	err = UnpackStream(bytes.NewReader(data), func(f File) error {
		if visited == stopAt {
			return errStop
		}
		if f.Name != clean[visited].Name {
			t.Errorf("%s: visit %d got %s, want %s", name, visited, f.Name, clean[visited].Name)
		}
		visited++
		return nil
	}, &Options{Concurrency: 4})
	if err != errStop {
		t.Fatalf("%s: UnpackStream returned %v, want the visit error verbatim", name, err)
	}
	if visited != stopAt {
		t.Fatalf("%s: visit saw %d classes before failing, want %d", name, visited, stopAt)
	}
	// A worker can still be between wg.Done and its exit when the call
	// returns; give the scheduler a moment before calling it a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%s: %d goroutines after UnpackStream returned, %d before", name, n, base)
	}
}
