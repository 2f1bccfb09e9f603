package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	cases := []struct{ concurrency, n, want int }{
		{0, 100, cores},
		{-3, 100, cores},
		{1, 100, 1},
		{4, 2, 2},
		{4, 0, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.concurrency, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.concurrency, c.n, got, c.want)
		}
	}
}

func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		err := Do(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		err := Do(workers, 500, func(i int) error {
			if i == 7 || i == 400 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 7" {
			t.Errorf("workers=%d: err = %v, want fail at 7", workers, err)
		}
	}
}

func TestDoSerialStopsEarly(t *testing.T) {
	ran := 0
	err := Do(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return fmt.Errorf("stop")
		}
		return nil
	})
	if err == nil || ran != 4 {
		t.Fatalf("serial Do ran %d items (err %v), want stop after 4", ran, err)
	}
}

func TestDoZeroItems(t *testing.T) {
	if err := Do(0, 0, func(int) error { return fmt.Errorf("called") }); err != nil {
		t.Fatal(err)
	}
}

func TestDoResultsAreOrdered(t *testing.T) {
	const n = 2000
	out := make([]int, n)
	if err := Do(8, n, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// pipelineRun drives Pipeline with stages that record what consume saw
// and fail where told; it returns the consumed indices, the result and
// the number of slots Pipeline allocated.
func pipelineRun(t *testing.T, workers, n int, failProduce, failWork, failConsume int) (consumed []int, slots, at int, err error) {
	t.Helper()
	type slot struct{ i, sq int }
	at, err = Pipeline(workers, n,
		func() *slot { slots++; return &slot{} },
		func(i int, s *slot) error {
			if i == failProduce {
				return fmt.Errorf("produce %d", i)
			}
			s.i = i
			return nil
		},
		func(_, i int, s *slot) error {
			if s.i != i {
				return fmt.Errorf("work %d got slot of item %d", i, s.i)
			}
			if i == failWork {
				return fmt.Errorf("work %d", i)
			}
			s.sq = i * i
			return nil
		},
		func(i int, s *slot) error {
			if s.sq != i*i {
				return fmt.Errorf("consume %d saw work result %d", i, s.sq)
			}
			if i == failConsume {
				return fmt.Errorf("consume %d", i)
			}
			consumed = append(consumed, i)
			return nil
		})
	return consumed, slots, at, err
}

func TestPipelineOrderedAndBounded(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		consumed, slots, at, err := pipelineRun(t, workers, 500, -1, -1, -1)
		if err != nil || at != -1 {
			t.Fatalf("workers=%d: (%d, %v)", workers, at, err)
		}
		for i, v := range consumed {
			if v != i {
				t.Fatalf("workers=%d: consume order %v...", workers, consumed[:i+1])
			}
		}
		if len(consumed) != 500 {
			t.Fatalf("workers=%d: consumed %d items", workers, len(consumed))
		}
		if limit := Workers(workers, 500) + 1; slots > limit {
			t.Fatalf("workers=%d: %d slots allocated, bound %d", workers, slots, limit)
		}
	}
}

// TestPipelineErrorIsSerial checks that every worker count reports the
// error, the index and the consumed prefix a serial loop would.
func TestPipelineErrorIsSerial(t *testing.T) {
	cases := []struct{ produce, work, consume int }{
		{40, -1, -1},
		{-1, 40, -1},
		{-1, -1, 40},
		{41, 40, -1}, // the work failure comes first in serial order
		{40, 40, -1}, // same index: produce fails before work runs
		{-1, 40, 40},
		{-1, 41, 40},
		{0, -1, -1},
		{-1, 99, -1},
	}
	for _, c := range cases {
		wantC, _, wantAt, wantErr := pipelineRun(t, 1, 100, c.produce, c.work, c.consume)
		for _, workers := range []int{2, 3, 8} {
			gotC, _, gotAt, gotErr := pipelineRun(t, workers, 100, c.produce, c.work, c.consume)
			if gotAt != wantAt || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(gotC) != fmt.Sprint(wantC) {
				t.Errorf("%+v workers=%d: (%d, %v, %d consumed), serial (%d, %v, %d consumed)",
					c, workers, gotAt, gotErr, len(gotC), wantAt, wantErr, len(wantC))
			}
		}
	}
}

func TestPipelineNoGoroutineSurvives(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, fail := range []int{-1, 3, 50} {
		pipelineRun(t, 4, 100, -1, -1, fail)
		pipelineRun(t, 4, 100, -1, fail, -1)
		pipelineRun(t, 4, 100, fail, -1, -1)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Pipeline returned, %d before", n, base)
	}
}

func TestPipelineZeroItems(t *testing.T) {
	if _, slots, at, err := pipelineRun(t, 4, 0, -1, -1, -1); err != nil || at != -1 || slots > 1 {
		t.Fatalf("(%d, %v), %d slots", at, err, slots)
	}
}
