package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"classpack"
)

// bulkProfiles are the bulk workload's corpora: two synth profiles at
// scales that give each about 1 MB of class files, so a round trip
// costs about the same on either and the latency set is unimodal.
var bulkProfiles = []struct {
	profile string
	scale   float64
}{{"rt", 0.08}, {"swingall", 0.22}}

func bulkCorpora(cfg config) ([]*corpus, error) {
	var out []*corpus
	for _, p := range bulkProfiles {
		c, err := genCorpus(p.profile, scaled(p.scale, cfg.scale), cfg.seed, "")
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// bulkOptions is the bulk configuration: the v2 monolithic layout with
// the paper's default coding and two workers.
func bulkOptions() classpack.Options {
	o := classpack.DefaultOptions()
	o.Concurrency = 2
	return o
}

// checkUnpack is the bulk oracle: the unpacked classes are, in order,
// the stripped inputs under their jar names.
func checkUnpack(rep *report, c *corpus, want [][]byte, got []classpack.File) error {
	if len(got) != len(want) {
		return rep.mismatch("%s: unpacked %d classes, want %d", c.name, len(got), len(want))
	}
	for i, f := range got {
		if f.Name != c.names[i] {
			return rep.mismatch("%s: class %d is %s, want %s", c.name, i, f.Name, c.names[i])
		}
		if !bytes.Equal(rep.received(f.Data), want[i]) {
			return rep.mismatch("%s: %s differs from classpack.Strip of its input", c.name, f.Name)
		}
	}
	return nil
}

// runBulk packs and eagerly unpacks the corpora in turn, one caller,
// for cfg.seconds. A round trip (Pack then Unpack of one corpus) is one
// operation; the deadline is checked after whole passes over all
// corpora so every run weighs them equally.
func runBulk(cfg config, rep *report) error {
	rep.section("bulk: Pack + eager Unpack, v2 layout, default options, Concurrency 2, 1 caller")
	cs, err := timeSetup(cfg, rep, func() ([]*corpus, error) { return bulkCorpora(cfg) }, func([]*corpus) {})
	if err != nil {
		return err
	}
	describe(rep, cs)
	want := make([][][]byte, len(cs))
	jarBytes := 0
	for i, c := range cs {
		if want[i], err = c.stripped(); err != nil {
			return err
		}
		jar, err := c.jar()
		if err != nil {
			return err
		}
		jarBytes += len(jar)
	}
	opts := bulkOptions()
	var pack, unpack, trip latencies
	var inBytes, outBytes, arcBytes float64
	runtime.GC()
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(seconds(cfg.seconds))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, c := range cs {
			t0 := time.Now()
			arc, err := classpack.Pack(c.files, &opts)
			tp := msSince(t0)
			if err != nil {
				rep.op(fmt.Errorf("%s: pack: %w", c.name, err))
				continue
			}
			t1 := time.Now()
			files, err := classpack.UnpackOpts(arc, &opts)
			tu := msSince(t1)
			if err != nil {
				rep.op(fmt.Errorf("%s: unpack: %w", c.name, err))
				continue
			}
			pack.add(tp)
			unpack.add(tu)
			trip.add(tp + tu)
			inBytes += float64(c.bytes)
			for _, f := range files {
				outBytes += float64(len(f.Data))
			}
			if pass == 0 {
				arcBytes += float64(len(arc))
			}
			rep.op(checkUnpack(rep, c, want[i], files))
		}
	}
	elapsed := time.Since(start).Seconds()

	rep.set("pack_mb_s", inBytes/1e6/(pack.sum()/1e3), "MB/s",
		fmt.Sprintf("input class MB over Pack time, %d packs", pack.len()))
	rep.set("unpack_mb_s", outBytes/1e6/(unpack.sum()/1e3), "MB/s",
		fmt.Sprintf("class MB produced over Unpack time, %d unpacks", unpack.len()))
	rep.set("packed_vs_jar", arcBytes/float64(jarBytes), "ratio", "archive bytes / jar bytes of the same classes")
	rep.set("req_s", float64(trip.len())/elapsed, "1/s", "Pack+Unpack round trips per second")
	setLatency(rep, "p50_ms", "tail_ms", &trip)
	setHeap(rep, heap)
	ratio, err := patchRatio(cs, opts, cfg.seed)
	if err != nil {
		return err
	}
	rep.set("patch_vs_full", ratio, "ratio", fmt.Sprintf("untimed: Diff bytes / new archive bytes, %d 5%%-changed releases per corpus", patchReleases))
	return nil
}
