package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"classpack"
	"classpack/internal/vfs"
)

// minRouteSamples is the fewest requests per route the traced read
// path makes, so every route's latency is measured in every run.
const minRouteSamples = 5

// replays bounds how many requests the read section replays layer by
// layer.
const replays = 64

// traceRead runs the serve-read mix with a span per request, then
// replays the layers under a class GET — the cache read, the archive
// open and the one-chunk decode — on the digests and classes requested.
func traceRead(cfg config, rep *report, rec *recorder, dur time.Duration) error {
	rep.section("traced read path: serve-read mix for %v", dur)
	e, err := setupRead(cfg)
	if err != nil {
		return err
	}
	defer e.close()
	want := make([][][]byte, len(e.cs))
	for i, c := range e.cs {
		if want[i], err = c.stripped(); err != nil {
			return err
		}
	}
	before, err := e.h.cl.Metrics(context.Background())
	if err != nil {
		return err
	}
	st := e.drive(cfg, rep, want, dur, minRouteSamples, rec)
	after, err := e.h.cl.Metrics(context.Background())
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	setLatency(rep, "serve.class_p50_ms", "serve.class_tail_ms", &st.class)
	setLatency(rep, "serve.pack_hit_p50_ms", "serve.pack_hit_tail_ms", &st.packHit)
	setLatency(rep, "serve.subset_p50_ms", "serve.subset_tail_ms", &st.subset)
	rep.set("classpack.decoded_bytes_per_class", delta("class_bytes_decoded")/max(delta("requests_class"), 1), "bytes",
		"/metrics class_bytes_decoded (class and subset GETs) / class requests")
	// jpackd counts cache hits and misses on POST /pack only, and every
	// jar serve-read uploads was cached in set-up, so this is 1 unless a
	// change breaks the cache's keying or retention.
	hits, misses := delta("cache_hits"), delta("cache_misses")
	rep.set("castore.hit_ratio", hits/max(hits+misses, 1), "ratio",
		fmt.Sprintf("%.0f hits, %.0f misses; POST /pack only, 1 by construction on this mix", hits, misses))

	from := rec.mark()
	fetched := st.fetched
	if len(fetched) > replays {
		fetched = fetched[:replays]
	}
	for _, t := range fetched {
		root := rec.start("replay.class", 0, 0)
		sp := rec.start("castore.get", root, 0)
		data, ok, err := e.h.store.Get(e.digests[t.c])
		rec.stop(sp)
		if err != nil || !ok {
			rec.stop(root)
			return fmt.Errorf("castore replay: digest %s: ok=%t err=%v", e.digests[t.c], ok, err)
		}
		sp = rec.start("classpack.open", root, 0)
		a, err := classpack.OpenArchiveBytes(data, &e.h.opts)
		rec.stop(sp)
		if err != nil {
			rec.stop(root)
			return err
		}
		sp = rec.start("core.chunk_decode", root, 0)
		_, err = a.ExtractClass(e.cs[t.c].names[t.i])
		rec.stop(sp)
		rec.stop(root)
		if err != nil {
			return err
		}
	}
	get := rec.durations("castore.get", from).sorted()
	open := rec.durations("classpack.open", from).sorted()
	chunk := rec.durations("core.chunk_decode", from).sorted()
	rep.set("castore.get_ms", median(get), "ms", fmt.Sprintf("median of %d Store.Get replays", len(get)))
	rep.set("classpack.open_us", 1000*median(open), "us", "median OpenArchiveBytes of a cached archive")
	rep.set("core.chunk_decode_ms", median(chunk), "ms", "median ExtractClass on a fresh Archive")
	return nil
}

// timingFS wraps the cache's write-path filesystem, counting fsyncs and
// their time, bytes written and renames.
type timingFS struct {
	vfs.FS
	mu      sync.Mutex
	fsyncs  int
	fsyncNs int64
	written int64
	renames int
}

func (t *timingFS) synced(start time.Time) {
	t.mu.Lock()
	t.fsyncs++
	t.fsyncNs += int64(time.Since(start))
	t.mu.Unlock()
}

func (t *timingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := t.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	t.mu.Lock()
	t.renames++
	t.mu.Unlock()
	return t.FS.Rename(oldpath, newpath)
}

func (t *timingFS) SyncDir(dir string) error {
	start := time.Now()
	defer t.synced(start)
	return t.FS.SyncDir(dir)
}

type timingFile struct {
	vfs.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	defer f.fs.synced(start)
	return f.File.Sync()
}

// traceWrite runs serve-write release cycles with a span per request
// and the cache's filesystem behind timingFS, then replays Diff on the
// release pairs the cycles published.
func traceWrite(cfg config, rep *report, rec *recorder, dur time.Duration) error {
	rep.section("traced write path: serve-write cycles for %v", dur)
	tfs := &timingFS{FS: vfs.OS()}
	e, err := setupWrite(cfg, tfs)
	if err != nil {
		return err
	}
	defer e.close()
	before, err := e.h.cl.Metrics(context.Background())
	if err != nil {
		return err
	}
	tfs.mu.Lock()
	fsyncs0, fsyncNs0, written0, renames0 := tfs.fsyncs, tfs.fsyncNs, tfs.written, tfs.renames
	tfs.mu.Unlock()
	len0 := e.h.store.Len()
	st := e.drive(cfg, rep, dur, rec)
	after, err := e.h.cl.Metrics(context.Background())
	if err != nil {
		return err
	}
	tfs.mu.Lock()
	fsyncs, fsyncNs := tfs.fsyncs-fsyncs0, tfs.fsyncNs-fsyncNs0
	written, renames := tfs.written-written0, tfs.renames-renames0
	tfs.mu.Unlock()
	delta := func(k string) float64 { return float64(after[k] - before[k]) }

	setLatency(rep, "serve.pack_miss_p50_ms", "serve.pack_miss_tail_ms", &st.pack)
	setLatency(rep, "serve.delta_p50_ms", "serve.delta_tail_ms", &st.delta)
	apply := st.apply.sorted()
	rep.set("delta.apply_ms", median(apply), "ms", fmt.Sprintf("median client ApplyDelta of %d", len(apply)))
	from := rec.mark()
	for _, p := range st.pairs {
		sp := rec.start("delta.diff", 0, 0)
		_, err := classpack.Diff(p[0], p[1], &e.h.opts)
		rec.stop(sp)
		if err != nil {
			return err
		}
	}
	diff := rec.durations("delta.diff", from).sorted()
	rep.set("delta.diff_ms", median(diff), "ms", fmt.Sprintf("median Diff replay of %d release pairs", len(diff)))
	rep.set("vfs.fsyncs", float64(fsyncs), "count", fmt.Sprintf("file and directory fsyncs over %d releases", st.pack.len()))
	rep.set("vfs.fsync_ms", float64(fsyncNs)/1e6/float64(max(fsyncs, 1)), "ms", "mean time per fsync")
	rep.set("vfs.write_mb", float64(written)/1e6, "MB", "bytes written to cache temp files")
	rep.set("castore.evictions", float64(renames-(e.h.store.Len()-len0)), "count",
		fmt.Sprintf("%d renames, cache holds %d objects", renames, e.h.store.Len()))
	rep.set("serve.encodes", delta("encodes_total"), "count", "/metrics encodes_total delta")
	rep.set("serve.coalesced", delta("coalesced_total"), "count", "/metrics coalesced_total delta")
	rep.set("serve.shed", delta("shed_total"), "count", "/metrics shed_total delta")
	return nil
}
