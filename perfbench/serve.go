package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/castore"
	"classpack/internal/serve"
	"classpack/internal/serve/client"
	"classpack/internal/vfs"
)

// clients is the closed-loop client count of both serve workloads: one
// per CPU of the 2-vCPU reference host, so no workload runs more
// connections than nproc there.
const clients = 2

// harness is an in-process jpackd on a loopback port with its own cache
// directory, plus an HTTP client limited to `clients` connections.
type harness struct {
	dir    string
	store  *castore.Store
	opts   classpack.Options
	cancel context.CancelFunc
	done   chan error
	hc     *http.Client
	cl     *client.Client
}

// serveOptions is what both serve workloads pack with: the chunked v3
// layout at 64 classes per chunk, one worker per job, two jobs at once.
func serveOptions() classpack.Options {
	o := classpack.DefaultOptions()
	o.ChunkClasses = 64
	o.Concurrency = 1
	return o
}

// startHarness opens a cache capped at capBytes over fsys (nil = the
// real filesystem) and starts a server on it.
func startHarness(cfg config, name string, capBytes int64, fsys vfs.FS) (*harness, error) {
	dir, err := os.MkdirTemp(cfg.workDir, name+"-cache-")
	if err != nil {
		return nil, err
	}
	if fsys == nil {
		fsys = vfs.OS()
	}
	store, err := castore.OpenFS(dir, capBytes, fsys)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := &harness{dir: dir, store: store, opts: serveOptions(), done: make(chan error, 1)}
	srv := serve.New(serve.Config{Options: h.opts, Store: store, MaxJobs: clients, RequestTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var ctx context.Context
	ctx, h.cancel = context.WithCancel(context.Background())
	go func() { h.done <- srv.Serve(ctx, ln) }()
	h.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}}
	// No retries: a refused or failed request must count as failed.
	h.cl = client.NewRetry("http://"+ln.Addr().String(), h.hc, client.RetryPolicy{MaxAttempts: 1})
	return h, nil
}

// close stops the server, waits for it to exit and removes the cache.
func (h *harness) close() {
	h.hc.CloseIdleConnections()
	h.cancel()
	<-h.done
	os.RemoveAll(h.dir)
}

// closedLoop runs fn on `clients` goroutines until the deadline and
// returns the elapsed seconds. Each client gets its own seeded
// generator.
func closedLoop(seed int64, dur time.Duration, fn func(c int, rng *rand.Rand, deadline time.Time)) float64 {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, rand.New(rand.NewSource(seed*7919+int64(c))), deadline)
		}(c)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// ---- serve-read -------------------------------------------------------

// readProfiles are the archives serve-read serves, one corpus each.
var readProfiles = []string{"202_jess", "213_javac", "228_jack", "icebrowserbean", "javafig"}

// readEnv is serve-read's set-up: corpora packed into a warm cache.
type readEnv struct {
	h       *harness
	cs      []*corpus
	jars    [][]byte
	arcs    [][]byte
	digests []string
}

func setupRead(cfg config) (*readEnv, error) {
	cs, err := genCorpora(readProfiles, scaled(1, cfg.scale), cfg.seed)
	if err != nil {
		return nil, err
	}
	// The cap is far above the working set: nothing is evicted.
	h, err := startHarness(cfg, "read", 1<<30, nil)
	if err != nil {
		return nil, err
	}
	e := &readEnv{h: h, cs: cs}
	for _, c := range cs {
		jar, err := c.jar()
		if err != nil {
			h.close()
			return nil, err
		}
		res, err := h.cl.Pack(context.Background(), jar)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("filling cache with %s: %w", c.name, err)
		}
		e.jars = append(e.jars, jar)
		e.arcs = append(e.arcs, res.Packed)
		e.digests = append(e.digests, res.Digest)
	}
	return e, nil
}

func (e *readEnv) close() { e.h.close() }

// target is one class of one served archive.
type target struct{ c, i int }

// readStats is what one serve-read drive measured.
type readStats struct {
	class, packHit, subset, all        latencies
	classBytes, subsetBytes, packBytes atomic.Int64
	elapsed                            float64
	mu                                 sync.Mutex
	fetched                            []target // class GETs, in order, for the trace's replays
}

// Request mix of serve-read. No published trace of class-loader traffic
// gives these, so the shares, the subset size and the popularity law are
// assumptions: most traffic is single-class loads, with some whole-jar
// uploads and multi-class fetches. Class popularity is Zipf-like with
// exponent popularity, inside the 0.64-0.83 range Breslau et al. ("Web
// caching and Zipf-like distributions", INFOCOM 1999) measured for web
// proxy request traces; that class requests follow it is unverified.
const (
	classShare  = 0.8 // GET /archive/{d}/class/{name}
	packShare   = 0.1 // POST /pack of a cached jar, chosen uniformly
	subsetNames = 4   // names per GET /archive/{d}?classes= (the rest of the mix)
	popularity  = 0.8
)

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s. Unlike
// rand.Zipf it accepts s <= 1.
type zipf struct{ cdf []float64 }

func newZipf(s float64, n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for k := range z.cdf {
		total += math.Pow(float64(k+1), -s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// drive runs the serve-read mix on every client. The seed shuffles
// which classes are popular. Each output is checked by the oracle after
// its latency is taken. The clients stop at the deadline, or later once
// every route has minRoute samples.
func (e *readEnv) drive(cfg config, rep *report, want [][][]byte, dur time.Duration, minRoute int, rec *recorder) *readStats {
	var targets []target
	for c, co := range e.cs {
		for i := range co.files {
			targets = append(targets, target{c, i})
		}
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(targets), func(a, b int) {
		targets[a], targets[b] = targets[b], targets[a]
	})
	st := &readStats{}
	ctx := context.Background()
	popular := newZipf(popularity, len(targets))
	st.elapsed = closedLoop(cfg.seed, dur, func(_ int, rng *rand.Rand, deadline time.Time) {
		short := func() bool {
			return st.class.len() < minRoute || st.packHit.len() < minRoute || st.subset.len() < minRoute
		}
		for time.Now().Before(deadline) || short() {
			t := targets[popular.draw(rng)]
			co, req := e.cs[t.c], rec.newReq()
			var err error
			switch r := rng.Float64(); {
			case r < classShare:
				name := strings.TrimSuffix(co.names[t.i], ".class")
				sp := rec.start("serve.class", 0, req)
				t0 := time.Now()
				var data []byte
				data, err = e.h.cl.ArchiveClass(ctx, e.digests[t.c], name)
				ms := msSince(t0)
				rec.stop(sp)
				if err == nil {
					st.class.add(ms)
					st.all.add(ms)
					st.classBytes.Add(int64(len(data)))
					st.mu.Lock()
					st.fetched = append(st.fetched, t)
					st.mu.Unlock()
					if !bytes.Equal(rep.received(data), want[t.c][t.i]) {
						err = rep.mismatch("class %s of %s differs from classpack.Strip of its source", name, co.name)
					}
				}
			case r < classShare+packShare:
				j := rng.Intn(len(e.jars))
				jco := e.cs[j]
				sp := rec.start("serve.pack_hit", 0, req)
				t0 := time.Now()
				var res *client.PackResult
				res, err = e.h.cl.Pack(ctx, e.jars[j])
				ms := msSince(t0)
				rec.stop(sp)
				if err == nil {
					st.packHit.add(ms)
					st.all.add(ms)
					st.packBytes.Add(int64(jco.bytes))
					switch {
					case res.Cache != "hit":
						err = rep.mismatch("POST /pack of cached %s answered %q, want a hit", jco.name, res.Cache)
					case !bytes.Equal(rep.received(res.Packed), e.arcs[j]):
						err = rep.mismatch("POST /pack hit for %s returned different archive bytes", jco.name)
					}
				}
			default:
				picks := map[int]bool{t.i: true}
				for len(picks) < min(subsetNames, len(co.files)) {
					picks[rng.Intn(len(co.files))] = true
				}
				var idx []int
				var pats []string
				for i := range picks {
					idx = append(idx, i)
				}
				sort.Ints(idx)
				for _, i := range idx {
					pats = append(pats, strings.TrimSuffix(co.names[i], ".class"))
				}
				sp := rec.start("serve.subset", 0, req)
				t0 := time.Now()
				var jar []byte
				jar, err = e.h.cl.ArchiveClasses(ctx, e.digests[t.c], pats)
				ms := msSince(t0)
				rec.stop(sp)
				if err == nil {
					st.subset.add(ms)
					st.all.add(ms)
					err = checkSubset(rep, co, want[t.c], idx, jar, &st.subsetBytes)
				}
			}
			rep.op(err)
		}
	})
	return st
}

// checkSubset is the subset oracle: the jar holds exactly the selected
// classes, in archive order, each equal to its stripped source.
func checkSubset(rep *report, co *corpus, want [][]byte, idx []int, jar []byte, n *atomic.Int64) error {
	members, err := archive.ReadJar(jar)
	if err != nil {
		return rep.mismatch("subset of %s is not a readable jar: %v", co.name, err)
	}
	if len(members) != len(idx) {
		return rep.mismatch("subset of %s holds %d classes, want %d", co.name, len(members), len(idx))
	}
	for k, m := range members {
		n.Add(int64(len(m.Data)))
		if m.Name != co.names[idx[k]] || !bytes.Equal(rep.received(m.Data), want[idx[k]]) {
			return rep.mismatch("subset of %s: member %s is not the stripped %s", co.name, m.Name, co.names[idx[k]])
		}
	}
	return nil
}

func runServeRead(cfg config, rep *report) error {
	rep.section("serve-read: %d clients, Zipf(%g) class GETs %.0f%%, cached POST /pack %.0f%%, ?classes= subsets of %d %.0f%% (assumed mix); v3 chunk 64",
		clients, popularity, 100*classShare, 100*packShare, subsetNames, 100*(1-classShare-packShare))
	e, err := timeSetup(cfg, rep, func() (*readEnv, error) { return setupRead(cfg) }, (*readEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	describe(rep, e.cs)
	want := make([][][]byte, len(e.cs))
	jarBytes, arcBytes := 0, 0
	for i, c := range e.cs {
		if want[i], err = c.stripped(); err != nil {
			return err
		}
		jarBytes += len(e.jars[i])
		arcBytes += len(e.arcs[i])
	}
	runtime.GC()
	heap := startHeapSampler()
	st := e.drive(cfg, rep, want, seconds(cfg.seconds), 0, nil)

	rep.set("req_s", float64(st.all.len())/st.elapsed, "1/s", fmt.Sprintf("%d completed requests", st.all.len()))
	setLatency(rep, "p50_ms", "tail_ms", &st.all)
	rep.set("pack_mb_s", float64(st.packBytes.Load())/1e6/(st.packHit.sum()/1e3), "MB/s",
		fmt.Sprintf("jar class MB over cached POST /pack latency, %d requests", st.packHit.len()))
	rep.set("unpack_mb_s", float64(st.classBytes.Load()+st.subsetBytes.Load())/1e6/((st.class.sum()+st.subset.sum())/1e3),
		"MB/s", "class MB served over class and subset GET latency")
	rep.set("packed_vs_jar", float64(arcBytes)/float64(jarBytes), "ratio", "cached archive bytes / jar bytes")
	setHeap(rep, heap)
	ratio, err := patchRatio(e.cs, e.h.opts, cfg.seed)
	if err != nil {
		return err
	}
	rep.set("patch_vs_full", ratio, "ratio", fmt.Sprintf("untimed: Diff bytes / new archive bytes, %d 5%%-changed releases per corpus", patchReleases))
	return nil
}

// ---- serve-write ------------------------------------------------------

// writeProfile is the corpus each serve-write client publishes releases
// of, one seeded lineage per client.
const writeProfile = "202_jess"

// lineage is one client's release history: the current release.
type lineage struct {
	c      *corpus
	files  [][]byte
	arc    []byte
	digest string
}

type writeEnv struct {
	h     *harness
	lines []*lineage
}

// setupWrite generates each client's first release and publishes it.
// The cache cap holds about six archives, so later releases evict
// continuously.
func setupWrite(cfg config, fsys vfs.FS) (*writeEnv, error) {
	e := &writeEnv{}
	var capBytes int64
	for c := 0; c < clients; c++ {
		co, err := genCorpus(writeProfile, scaled(1, cfg.scale), cfg.seed, fmt.Sprintf(".client%d", c))
		if err != nil {
			return nil, err
		}
		opts := serveOptions()
		arc, err := classpack.Pack(co.files, &opts)
		if err != nil {
			return nil, err
		}
		capBytes += 3 * int64(len(arc))
		e.lines = append(e.lines, &lineage{c: co, files: co.files, arc: arc})
	}
	h, err := startHarness(cfg, "write", capBytes, fsys)
	if err != nil {
		return nil, err
	}
	e.h = h
	for _, l := range e.lines {
		jar, err := l.c.jar()
		if err != nil {
			h.close()
			return nil, err
		}
		res, err := h.cl.Pack(context.Background(), jar)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("publishing %s: %w", l.c.name, err)
		}
		if !bytes.Equal(res.Packed, l.arc) {
			h.close()
			return nil, fmt.Errorf("jpackd packed %s differently from classpack.Pack", l.c.name)
		}
		l.digest = res.Digest
	}
	return e, nil
}

func (e *writeEnv) close() { e.h.close() }

// writeStats is what one serve-write drive measured.
type writeStats struct {
	pack, delta, apply, cycle        latencies
	classBytes, arcBytes, jarBytes   atomic.Int64
	patchBytes, misses, notMiss, req atomic.Int64
	elapsed                          float64
	mu                               sync.Mutex
	pairs                            [][2][]byte // (old, new) archives, for the trace's Diff replay
}

// maxPairs bounds the archive pairs kept for the Diff replay.
const maxPairs = 64

// drive runs release cycles on every client: mutate 5% of the classes,
// POST /pack the new release (a miss), GET /delta from the previous
// release, ApplyDelta locally and compare with the /pack bytes.
func (e *writeEnv) drive(cfg config, rep *report, dur time.Duration, rec *recorder) *writeStats {
	st := &writeStats{}
	ctx := context.Background()
	st.elapsed = closedLoop(cfg.seed, dur, func(c int, _ *rand.Rand, deadline time.Time) {
		l := e.lines[c]
		for k := int64(1); time.Now().Before(deadline); k++ {
			next, err := release(l.files, cfg.seed*1_000_003+int64(c)*100_003+k)
			if err != nil {
				rep.op(err)
				return
			}
			jar, err := jarOf(l.c.names, next)
			if err != nil {
				rep.op(err)
				return
			}
			classBytes := 0
			for _, f := range next {
				classBytes += len(f)
			}
			req := rec.newReq()
			cyc := rec.start("serve.cycle", 0, req)
			sp := rec.start("serve.pack_miss", cyc, req)
			t0 := time.Now()
			res, err := e.h.cl.Pack(ctx, jar)
			tp := msSince(t0)
			rec.stop(sp)
			st.req.Add(1)
			rep.op(err)
			if err != nil {
				rec.stop(cyc)
				continue
			}
			if res.Cache == "miss" {
				st.misses.Add(1)
			} else {
				st.notMiss.Add(1)
			}
			sp = rec.start("serve.delta", cyc, req)
			t1 := time.Now()
			patch, err := e.h.cl.Delta(ctx, l.digest, res.Digest)
			td := msSince(t1)
			rec.stop(sp)
			st.req.Add(1)
			var ta float64
			if err == nil {
				sp = rec.start("delta.apply", cyc, req)
				t2 := time.Now()
				var rebuilt []byte
				rebuilt, err = classpack.ApplyDelta(l.arc, patch, &e.h.opts)
				ta = msSince(t2)
				rec.stop(sp)
				if err == nil && !bytes.Equal(rep.received(rebuilt), res.Packed) {
					err = rep.mismatch("%s: ApplyDelta(prev, GET /delta) differs from the POST /pack bytes", l.c.name)
				}
			}
			rec.stop(cyc)
			rep.op(err)
			if err == nil {
				st.pack.add(tp)
				st.delta.add(td)
				st.apply.add(ta)
				st.cycle.add(tp + td + ta)
				st.classBytes.Add(int64(classBytes))
				st.arcBytes.Add(int64(len(res.Packed)))
				st.jarBytes.Add(int64(len(jar)))
				st.patchBytes.Add(int64(len(patch)))
				st.mu.Lock()
				if len(st.pairs) < maxPairs {
					st.pairs = append(st.pairs, [2][]byte{l.arc, res.Packed})
				}
				st.mu.Unlock()
			}
			l.files, l.arc, l.digest = next, res.Packed, res.Digest
		}
	})
	return st
}

func runServeWrite(cfg config, rep *report) error {
	rep.section("serve-write: %d clients publishing 5%%-changed releases: POST /pack (miss), GET /delta, ApplyDelta; v3 chunk 64", clients)
	e, err := timeSetup(cfg, rep, func() (*writeEnv, error) { return setupWrite(cfg, nil) }, (*writeEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	for _, l := range e.lines {
		describe(rep, []*corpus{l.c})
	}
	runtime.GC()
	heap := startHeapSampler()
	st := e.drive(cfg, rep, seconds(cfg.seconds), nil)

	rep.note("%d releases published (%d cache misses, %d not misses)", st.pack.len(), st.misses.Load(), st.notMiss.Load())
	rep.set("req_s", float64(st.req.Load())/st.elapsed, "1/s", "POST /pack and GET /delta requests per second")
	setLatency(rep, "p50_ms", "tail_ms", &st.cycle)
	rep.set("pack_mb_s", float64(st.classBytes.Load())/1e6/(st.pack.sum()/1e3), "MB/s",
		"release class MB over POST /pack (miss) latency")
	rep.set("unpack_mb_s", float64(st.classBytes.Load())/1e6/(st.apply.sum()/1e3), "MB/s",
		"release class MB rebuilt over client ApplyDelta time")
	rep.set("packed_vs_jar", float64(st.arcBytes.Load())/float64(st.jarBytes.Load()), "ratio",
		"release archive bytes / release jar bytes")
	rep.set("patch_vs_full", float64(st.patchBytes.Load())/float64(st.arcBytes.Load()), "ratio",
		"GET /delta bytes / new archive bytes")
	setHeap(rep, heap)
	return nil
}
