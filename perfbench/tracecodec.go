package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/encoding/arith"
	"classpack/internal/streams"
	"classpack/internal/strip"
)

// codecLayers are the codec's traced calls, by span name, with the
// metric each one's self time and allocations report as.
var codecLayers = []struct{ span, metric string }{
	{"classfile.parse", "classfile.parse"},
	{"strip.apply", "strip.apply"},
	{"core.pack", "core.encode_self"},
	{"streams.encode", "streams.encode"},
	{"streams.decode", "streams.decode"},
	{"core.unpack", "core.decode_self"},
	{"classfile.write", "classfile.write"},
}

// packLayers and unpackLayers are the spans whose self times must cover
// the untraced Pack and Unpack wall time.
var (
	packLayers   = []string{"classfile.parse", "strip.apply", "core.pack", "streams.encode"}
	unpackLayers = []string{"core.unpack", "streams.decode", "classfile.write"}
)

// minCodecIters is the fewest traced codec iterations a run makes (two
// per bulk corpus), so the medians below have samples enough to ignore
// one disturbed iteration.
const minCodecIters = 4

// codecIter is one traced round trip of one corpus.
type codecIter struct {
	self       map[string]layerTime
	allocs     map[string]allocs
	basePack   float64 // untraced Pack wall ms, the faster of two runs
	baseUnpack float64
	pack       float64 // traced pack wall ms
	unpack     float64
	trials     int
	arithWins  int
	exact      bool // the streams replay reproduced the archive body
	// misattributed names the first codec layer whose self time is not
	// positive, or is empty. A replay longer than its parent span (the
	// streams work it stands for) leaves the parent a self time <= 0.
	misattributed string
}

// traceCodec times each codec layer on the bulk corpora, serially
// (Concurrency 1) so every call's time and allocations are its own.
// Times are medians over iterations, allocations means. The traced
// layer self times must cover at least 90% of an untraced Pack and
// Unpack at the same concurrency, every layer's self time must be
// positive in every iteration, and the streams replay must reproduce the
// archive body byte for byte.
func traceCodec(cfg config, rep *report, rec *recorder, dur time.Duration) error {
	rep.section("traced codec layers on the bulk corpora, Concurrency 1")
	cs, err := bulkCorpora(cfg)
	if err != nil {
		return err
	}
	want := make([][][]byte, len(cs))
	for i, c := range cs {
		if want[i], err = c.stripped(); err != nil {
			return err
		}
	}
	var iters []codecIter
	deadline := time.Now().Add(dur)
	for it := 0; it < minCodecIters || time.Now().Before(deadline); it++ {
		ci := it % len(cs)
		r, err := traceCodecOnce(rep, rec, cs[ci], want[ci])
		if err != nil {
			return err
		}
		iters = append(iters, r)
	}
	med := func(f func(r codecIter) float64) float64 {
		var v []float64
		for _, r := range iters {
			v = append(v, f(r))
		}
		sort.Float64s(v)
		return median(v)
	}
	sum := func(r codecIter, spans []string) float64 {
		t := 0.0
		for _, s := range spans {
			t += r.self[s].selfMs
		}
		return t
	}
	rep.note("%d corpus iterations; times are medians and allocations means per packed corpus (about %.2f MB of classes)",
		len(iters), float64(cs[0].bytes+cs[len(cs)-1].bytes)/2e6)
	for _, l := range codecLayers {
		rep.set(l.metric+"_ms", med(func(r codecIter) float64 { return r.self[l.span].selfMs }), "ms",
			fmt.Sprintf("%d calls per corpus", iters[0].self[l.span].n))
	}
	rep.set("streams.flate_ms", med(func(r codecIter) float64 { return r.self["streams.flate"].selfMs }), "ms",
		"per-stream DEFLATE trial replay")
	rep.set("streams.arith_ms", med(func(r codecIter) float64 { return r.self["streams.arith"].selfMs }), "ms",
		"per-stream arithmetic-coder trial replay")
	trials, wins, misattributed := 0, 0, 0
	exact := true
	total := map[string]allocs{}
	for i, r := range iters {
		trials += r.trials
		wins += r.arithWins
		exact = exact && r.exact
		if r.misattributed != "" {
			misattributed++
			rep.note("iteration %d: %s", i+1, r.misattributed)
		}
		for k, a := range r.allocs {
			addAllocs(total, k, a)
		}
	}
	rep.set("streams.arith_win_ratio", float64(wins)/float64(max(trials, 1)), "ratio",
		fmt.Sprintf("%d arith wins of %d trials", wins, trials))
	n := float64(len(iters))
	for _, l := range codecLayers {
		a := total[l.span]
		rep.set(l.metric+".alloc_mb", float64(a.bytes)/1e6/n, "MB", "")
		rep.set(l.metric+".mallocs", float64(a.objects)/n, "count", "")
	}
	packCov := med(func(r codecIter) float64 { return sum(r, packLayers) / r.basePack })
	unpackCov := med(func(r codecIter) float64 { return sum(r, unpackLayers) / r.baseUnpack })
	rep.set("trace.pack_coverage", packCov, "ratio", "median pack layer self times / untraced Pack wall time")
	rep.set("trace.unpack_coverage", unpackCov, "ratio", "median unpack layer self times / untraced Unpack wall time")
	rep.set("trace.overhead", med(func(r codecIter) float64 { return (r.pack+r.unpack)/(r.basePack+r.baseUnpack) - 1 }),
		"ratio", "median traced pack+unpack wall time / untraced, minus 1")
	// The replays are subtracted from their parents and counted as
	// layers of their own, so coverage is about 1 plus tracing overhead
	// by construction; the attribution check below is what catches a
	// replay that does not stand for the work it was subtracted from.
	rep.fidelity(packCov >= 0.9 && unpackCov >= 0.9,
		"layer self times cover %.1f%% of Pack and %.1f%% of Unpack (need 90%%)", 100*packCov, 100*unpackCov)
	rep.fidelity(misattributed == 0,
		"every layer self time positive, every replay shorter than its parent span, in %d of %d iterations",
		len(iters)-misattributed, len(iters))
	rep.fidelity(exact, "streams replay of FinishChecked reproduces the archive body byte for byte")
	return nil
}

// untracedRoundTrip times classpack.Pack and UnpackOpts of files, each
// from a freshly collected heap.
func untracedRoundTrip(files [][]byte, opts *classpack.Options) (packMs, unpackMs float64, arc []byte, err error) {
	runtime.GC()
	t0 := time.Now()
	arc, err = classpack.Pack(files, opts)
	packMs = msSince(t0)
	if err != nil {
		return 0, 0, nil, err
	}
	runtime.GC()
	t0 = time.Now()
	_, err = classpack.UnpackOpts(arc, opts)
	return packMs, msSince(t0), arc, err
}

// traceCodecOnce is one iteration: an untraced round trip, the traced
// pack, the stream replays, the traced unpack, and a second untraced
// round trip. The baseline is the faster of the two untraced runs.
func traceCodecOnce(rep *report, rec *recorder, c *corpus, want [][]byte) (codecIter, error) {
	opts := classpack.DefaultOptions()
	opts.Concurrency = 1
	copts := core.DefaultOptions()
	copts.Concurrency = 1
	r := codecIter{allocs: map[string]allocs{}, exact: true}
	basePack, baseUnpack, baseArc, err := untracedRoundTrip(c.files, &opts)
	if err != nil {
		return r, fmt.Errorf("%s: %w", c.name, err)
	}
	from, op := rec.mark(), rec.newReq()

	// Traced pack: parse, strip, then core.Pack of the stripped set.
	runtime.GC()
	root := rec.start("codec.pack", 0, op)
	t0 := time.Now()
	a0 := readAllocs()
	cfs := make([]*classfile.ClassFile, len(c.files))
	for i, f := range c.files {
		sp := rec.start("classfile.parse", root, op)
		cfs[i], err = classfile.Parse(f)
		rec.stop(sp)
		if err != nil {
			return r, err
		}
	}
	a1 := readAllocs()
	var sc strip.Scratch
	for _, cf := range cfs {
		sp := rec.start("strip.apply", root, op)
		err = strip.ApplyScratch(cf, strip.Options{}, &sc)
		rec.stop(sp)
		if err != nil {
			return r, err
		}
	}
	a2 := readAllocs()
	packSpan := rec.start("core.pack", root, op)
	arc, err := core.Pack(cfs, copts)
	rec.stop(packSpan)
	a3 := readAllocs()
	rec.stop(root)
	r.pack = msSince(t0)
	if err != nil {
		return r, err
	}
	if !bytes.Equal(arc, baseArc) {
		return r, fmt.Errorf("%s: layer-by-layer pack differs from classpack.Pack", c.name)
	}
	r.allocs["classfile.parse"] = a1.since(a0)
	r.allocs["strip.apply"] = a2.since(a1)

	// Replay the stream coding core.Pack did internally: rebuild a
	// writer from the archive's decoded raw streams and finish it.
	body := arc[6:]
	raws, err := rawStreams(body)
	if err != nil {
		return r, err
	}
	w := streams.NewWriter()
	for _, s := range raws {
		w.Stream(s.name).Write(s.raw)
	}
	b0 := readAllocs()
	sp := rec.start("streams.encode", packSpan, op)
	replay, err := w.FinishChecked(true, 1)
	rec.stop(sp)
	r.allocs["streams.encode"] = readAllocs().since(b0)
	if err != nil {
		return r, err
	}
	r.exact = bytes.Equal(replay, body)
	r.allocs["core.pack"] = a3.since(a2).since(r.allocs["streams.encode"])

	// Per-stream trial coding, as the writer runs it: DEFLATE, then the
	// arithmetic coder on streams up to 64 KiB.
	trialRoot := rec.start("streams.trials", 0, op)
	for _, s := range raws {
		if len(s.raw) == 0 {
			continue
		}
		sp := rec.start("streams.flate", trialRoot, op)
		flated, ferr := archive.Flate(s.raw)
		rec.stop(sp)
		best := len(s.raw)
		if ferr == nil && len(flated) < best {
			best = len(flated)
		}
		if len(s.raw) > 1<<16 {
			continue
		}
		sp = rec.start("streams.arith", trialRoot, op)
		syms := make([]int, len(s.raw))
		for i, b := range s.raw {
			syms[i] = int(b)
		}
		coded, aerr := arith.EncodeAll(256, syms)
		rec.stop(sp)
		r.trials++
		if aerr == nil && len(coded) < best {
			r.arithWins++
		}
	}
	rec.stop(trialRoot)

	// Traced unpack: core's decode, with the stream decoding it does
	// internally replayed as a child, then per-class serialization.
	runtime.GC()
	root = rec.start("codec.unpack", 0, op)
	t0 = time.Now()
	b1 := readAllocs()
	unpackSpan := rec.start("core.unpack", root, op)
	var decoded []*classfile.ClassFile
	err = core.UnpackStreamOpts(arc, core.UnpackOpts{Concurrency: 1}, func(cf *classfile.ClassFile) error {
		decoded = append(decoded, cf)
		return nil
	})
	rec.stop(unpackSpan)
	b2 := readAllocs()
	if err != nil {
		return r, err
	}
	out := make([]classpack.File, len(decoded))
	for i, cf := range decoded {
		sp := rec.start("classfile.write", root, op)
		out[i].Data, err = classfile.Write(cf)
		rec.stop(sp)
		if err != nil {
			return r, err
		}
		out[i].Name = cf.ThisClassName() + ".class"
	}
	b3 := readAllocs()
	rec.stop(root)
	r.unpack = msSince(t0)
	sp = rec.start("streams.decode", unpackSpan, op)
	_, err = streams.NewCheckedReaderLimit(body, 1, 0)
	rec.stop(sp)
	r.allocs["streams.decode"] = readAllocs().since(b3)
	if err != nil {
		return r, err
	}
	r.allocs["core.unpack"] = b2.since(b1).since(r.allocs["streams.decode"])
	r.allocs["classfile.write"] = b3.since(b2)
	rep.op(checkUnpack(rep, c, want, out))

	basePack2, baseUnpack2, _, err := untracedRoundTrip(c.files, &opts)
	if err != nil {
		return r, err
	}
	r.basePack, r.baseUnpack = min(basePack, basePack2), min(baseUnpack, baseUnpack2)
	r.self = rec.selfTimes(from)
	for _, l := range codecLayers {
		if t := r.self[l.span]; t.n == 0 || t.selfMs <= 0 {
			r.misattributed = fmt.Sprintf("%s self time %.3f ms over %d spans (replay longer than its parent?)", l.span, t.selfMs, t.n)
			break
		}
	}
	return r, nil
}

func addAllocs(m map[string]allocs, name string, a allocs) {
	b := m[name]
	m[name] = allocs{b.bytes + a.bytes, b.objects + a.objects}
}

// rawStream is one decoded wire stream.
type rawStream struct {
	name string
	raw  []byte
}

// rawStreams decodes a checked container body into its named streams.
func rawStreams(body []byte) ([]rawStream, error) {
	secs, err := streams.Sections(body, true)
	if err != nil {
		return nil, err
	}
	r, err := streams.NewCheckedReaderLimit(body, 1, 0)
	if err != nil {
		return nil, err
	}
	out := make([]rawStream, len(secs))
	for i, s := range secs {
		rs := r.Stream(s.Name)
		raw, err := rs.Raw(rs.Remaining())
		if err != nil {
			return nil, err
		}
		out[i] = rawStream{s.Name, raw}
	}
	return out, nil
}
