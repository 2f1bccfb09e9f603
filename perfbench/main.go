// Command perfbench is classpack's end-to-end benchmark. It runs one of
// three seeded, closed-loop workloads against the public codec API and
// an in-process jpackd on loopback, checks every output against an
// oracle, and prints a human-readable report followed by one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end set named in
// BENCHMARK.json; with --trace 1 a separate traced run times every
// layer from outside the program and reports the per-layer set.
//
// Run it from the repository root through the wrapper, which builds the
// binary from source first:
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	trace    bool
	// scale multiplies every corpus size (1 = the benchmark's sizes; the
	// smoke test runs tiny corpora).
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// workDir holds the run's cache directories and span file.
	workDir string
	// corruptOne flips a byte of the first output a workload receives
	// before its oracle sees it, so tests can prove the oracle fires.
	corruptOne bool
}

// workloads maps each workload name to its untraced run. The traced run
// (trace.go) covers every layer for any workload name.
var workloads = map[string]func(config, *report) error{
	"bulk":        runBulk,
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
}

func main() {
	cfg := config{scale: 1, setups: 5}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "bulk, serve-read or serve-write")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead")
	flag.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run, writing the report to w, and returns
// the result the JSON line carries.
func run(cfg config, w io.Writer) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want bulk, serve-read or serve-write)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport(w)
	rep.tamper = cfg.corruptOne
	printFingerprint(w, cfg)
	var err error
	if cfg.trace {
		err = runTraced(cfg, rep)
	} else {
		err = fn(cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep.finish(cfg.trace), nil
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and outcome counts and prints each
// metric as it is set.
type report struct {
	mu        sync.Mutex // guards the counters and tamper; op and received run on client goroutines
	w         io.Writer
	metrics   map[string]metric
	attempted int64
	failed    int64 // errors, refusals and wrong outputs
	wrong     int64 // wrong outputs and failed fidelity checks
	// tamper, when set, makes received corrupt the next output it sees
	// (config.corruptOne).
	tamper bool
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: map[string]metric{}}
}

// set records a metric and prints it with its unit and an optional note.
func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.w, "  %-40s %14.6g %-6s%s\n", name, v, unit, note)
}

// section prints a heading.
func (r *report) section(format string, args ...any) {
	fmt.Fprintf(r.w, "== "+format+"\n", args...)
}

// note prints a free-form line.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "  "+format+"\n", args...)
}

// op counts one attempted operation and, when err is non-nil, its
// failure.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.w, "  FAILED: %v\n", err)
	}
}

// mismatch records a wrong output found by an oracle. Callers count the
// operation through op as well.
func (r *report) mismatch(format string, args ...any) error {
	r.mu.Lock()
	r.wrong++
	r.mu.Unlock()
	return fmt.Errorf("WRONG OUTPUT: "+format, args...)
}

// received passes an output on to its oracle. With tampering armed it
// returns a copy of the first output with one byte flipped instead.
func (r *report) received(data []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.tamper || len(data) == 0 {
		return data
	}
	r.tamper = false
	out := append([]byte(nil), data...)
	out[len(out)/2] ^= 0x5a
	return out
}

// fidelity records a traced-run self-check; a failure fails the run.
func (r *report) fidelity(ok bool, format string, args ...any) {
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
		r.wrong++
		r.failed++
	}
	fmt.Fprintf(r.w, "  fidelity %s: "+format+"\n", append([]any{verdict}, args...)...)
}

// finish prints the outcome summary and builds the result. error_ratio
// is printed but not a JSON metric: it is zero on a healthy run, so the
// JSON carries ok_ratio = 1 - error_ratio instead. The clients never
// retry, so any failed operation — an error, a refusal or a wrong
// output — makes the run incorrect.
func (r *report) finish(traced bool) *result {
	if r.attempted == 0 {
		r.attempted = 1
		r.failed++
		r.wrong++
		fmt.Fprintln(r.w, "  FAILED: no operation completed in the measured phase")
	}
	errRatio := float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(r.w, "  %-40s %14.6g %-6s(failed %d of %d attempted; %d wrong outputs)\n",
		"error_ratio", errRatio, "ratio", r.failed, r.attempted, r.wrong)
	if !traced {
		r.set("ok_ratio", 1-errRatio, "ratio", "1 - error_ratio")
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(r.w, "== %d metrics: %s\n", len(names), strings.Join(names, " "))
	return &result{
		Correct:   r.wrong == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// msSince is time.Since in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// seconds converts a float second count to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// timeSetup runs set-up cfg.setups times and reports the median as
// setup_s. Every repetition but the last is torn down.
func timeSetup[T any](cfg config, rep *report, setup func() (T, error), teardown func(T)) (T, error) {
	var times []float64
	var last T
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			teardown(v)
		}
		last = v
	}
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	rep.set("setup_s", median(s), "s", fmt.Sprintf("median of %d set-ups, %v s", len(s), times))
	return last, nil
}
