package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeConfig is a tiny run: small corpora, half a second, one set-up.
func smokeConfig(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, seed: 1, seconds: 0.5, trace: traced,
		scale: 0.05, setups: 1, workDir: t.TempDir()}
}

// TestSmoke runs every workload, untraced and traced, at tiny scale and
// checks that every metric BENCHMARK.json names is printed with its
// unit and carried in the result, and that no output was wrong.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, wl := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			var out bytes.Buffer
			res, err := run(smokeConfig(t, wl.Name, traced), &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", wl.Name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s",
					wl.Name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", wl.Name, traced, m.Name, got, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `\b`)
				if !line.Match(out.Bytes()) {
					t.Errorf("%s trace=%t: %s is not printed with unit %s", wl.Name, traced, m.Name, m.Unit)
				}
			}
		}
	}
}

// TestOracleCatchesCorruption flips a byte of the first output each
// workload receives and checks that the oracle reports it.
func TestOracleCatchesCorruption(t *testing.T) {
	errRatio := regexp.MustCompile(`(?m)^\s+error_ratio\s+(\S+)\s+ratio`)
	for _, wl := range loadSpec(t).Workloads {
		cfg := smokeConfig(t, wl.Name, false)
		cfg.corruptOne = true
		var out bytes.Buffer
		res, err := run(cfg, &out)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		m := errRatio.FindSubmatch(out.Bytes())
		if m == nil {
			t.Fatalf("%s: no error_ratio line\n%s", wl.Name, out.String())
		}
		if v, err := strconv.ParseFloat(string(m[1]), 64); err != nil || v <= 0 {
			t.Errorf("%s: error_ratio %s after corrupting an output, want > 0", wl.Name, m[1])
		}
		if res.Correct || res.Failed == 0 || res.Metrics["ok_ratio"].Value >= 1 {
			t.Errorf("%s: corrupted output not reported: correct=%t failed=%d ok_ratio=%g",
				wl.Name, res.Correct, res.Failed, res.Metrics["ok_ratio"].Value)
		}
		if !bytes.Contains(out.Bytes(), []byte("WRONG OUTPUT")) {
			t.Errorf("%s: the mismatch is not printed", wl.Name)
		}
	}
}

// TestRefusalMakesRunIncorrect checks that a failed operation with no
// wrong output (an error or a refused request) still fails the run.
func TestRefusalMakesRunIncorrect(t *testing.T) {
	rep := newReport(io.Discard)
	rep.op(nil)
	rep.op(errors.New("429 overloaded"))
	if res := rep.finish(false); res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("one refused of two: correct=%t failed=%d attempted=%d, want false/1/2",
			res.Correct, res.Failed, res.Attempted)
	}
}
