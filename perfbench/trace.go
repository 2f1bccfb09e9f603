package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no instrumentation). A replay
// span re-runs work its parent did internally, so the parent's self
// time excludes it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // request or operation id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced runs share the traced code paths.
type recorder struct {
	t0    time.Time
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// newReq returns a fresh request id for the spans of one operation.
func (r *recorder) newReq() int64 {
	if r == nil {
		return 0
	}
	return r.reqs.Add(1)
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) start(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) stop(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// layerTime is a span name's total self time and call count.
type layerTime struct {
	selfMs float64
	n      int
}

// selfTimes aggregates self time (duration minus children's durations)
// by span name over spans with ID > from.
func (r *recorder) selfTimes(from int) map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := map[int]int64{}
	for _, s := range r.spans[from:] {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for _, s := range r.spans[from:] {
		lt := out[s.Name]
		lt.selfMs += float64(s.End-s.Start-child[s.ID]) / 1e6
		lt.n++
		out[s.Name] = lt
	}
	return out
}

// durations lists the durations (ms) of spans named name with ID > from.
func (r *recorder) durations(name string, from int) *latencies {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := &latencies{}
	for _, s := range r.spans[from:] {
		if s.Name == name {
			l.ms = append(l.ms, float64(s.End-s.Start)/1e6)
		}
	}
	return l
}

func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced is the per-layer run. It traces all three layer groups —
// codec, read path, write path — so every per-layer metric is measured
// for any workload name; the named workload's group gets 60% of the
// time and the other two 20% each.
func runTraced(cfg config, rep *report) error {
	rec := newRecorder()
	focus := map[string]string{"bulk": "codec", "serve-read": "read", "serve-write": "write"}[cfg.workload]
	share := func(group string) time.Duration {
		if group == focus {
			return seconds(0.6 * cfg.seconds)
		}
		return seconds(0.2 * cfg.seconds)
	}
	if err := traceCodec(cfg, rep, rec, share("codec")); err != nil {
		return err
	}
	if err := traceRead(cfg, rep, rec, share("read")); err != nil {
		return err
	}
	if err := traceWrite(cfg, rep, rec, share("write")); err != nil {
		return err
	}
	rep.section("not measurable from outside the program (need in-program tracing)")
	rep.note("serve.admission_wait_ms: time a request waits for a job slot")
	rep.note("serve.singleflight_wait_ms: time a coalesced /pack waits for its leader")
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	rep.note("%d spans written to %s", rec.mark(), path)
	return nil
}
