// Package par provides the bounded, order-preserving worker pool the
// codec fans independent per-item work across: per-file parse/strip and
// write-out in the public API, per-stream compression and decompression
// in the container, and whole-archive verification — plus Pipeline,
// the streaming variant that overlaps a serial producer (the unpacker's
// stateful wire decode) with parallel work on the items it yields. Work
// is indexed, results are delivered by index, and the error reported is
// always the lowest-index failure — so output content, output order,
// and error selection never depend on the worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a concurrency request for n items: values <= 0 mean
// "all cores" (runtime.GOMAXPROCS). The result is clamped to [1, n] for
// n >= 1, and is 1 when there is nothing to do.
func Workers(concurrency, n int) int {
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	if concurrency > n {
		concurrency = n
	}
	if concurrency < 1 {
		concurrency = 1
	}
	return concurrency
}

// Do runs f(i) for every i in [0, n) on at most Workers(concurrency, n)
// goroutines and returns the lowest-index error — the same error a
// serial loop would stop at. With one worker it runs every call inline
// on the calling goroutine, reproducing the serial path exactly
// (including stopping at the first failure).
//
// Under parallel execution an index after a failing one may still have
// been processed by the time Do returns; callers must treat the result
// slice as undefined past the returned error's index, just as a serial
// loop would have left it unfilled.
func Do(concurrency, n int, f func(i int) error) error {
	return DoWorkers(concurrency, n, func(_, i int) error { return f(i) })
}

// DoWorkers is Do for callbacks that keep per-worker scratch state: f
// additionally receives the calling worker's id in [0, Workers(concurrency,
// n)). A given worker id is never used by two goroutines concurrently, so
// scratch indexed by it needs no locking. Item-to-worker assignment is
// load-dependent; anything that must not vary with scheduling (output
// content, order, error selection) carries the item index, exactly as in
// Do.
func DoWorkers(concurrency, n int, f func(worker, i int) error) error {
	workers := Workers(concurrency, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := f(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Int64 // lowest failing index seen so far
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	failed.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				// The claim counter is monotonic, so once a claimed index
				// lies past the failure frontier every later claim will
				// too; items before the frontier still run to completion
				// so the lowest-index error wins deterministically.
				if i >= n || int64(i) > failed.Load() {
					return
				}
				if err := f(worker, i); err != nil {
					errs[i] = err
					for {
						cur := failed.Load()
						if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Pipeline runs every item in [0, n) through three stages and returns
// the index and error of the first failure a serial loop would meet, or
// (-1, nil). produce(i, s) fills a slot serially on the calling
// goroutine, in index order; work(worker, i, s) runs on up to
// Workers(concurrency, n) goroutines; consume(i, s) runs serially on the
// calling goroutine, in index order. For one item the stages run in
// that order, and an error at any of them stops the items after it:
// consume never sees an item past a failure, and the error returned is
// the lowest-index one (for one index, the earliest stage). So what
// consume sees and which error is returned do not depend on the worker
// count, only how far produce may have run ahead of a failure does.
//
// Slots come from newSlot, called on the calling goroutine, and are
// recycled once consumed. At most Workers(concurrency, n) + 1 items are
// in flight, so at most that many slots exist, and produce may run that
// far ahead of consume. With one worker every stage runs inline on the
// calling goroutine with a single slot, reproducing the serial loop
// exactly. Every goroutine Pipeline starts has exited when it returns.
func Pipeline[S any](concurrency, n int, newSlot func() S,
	produce func(i int, s S) error,
	work func(worker, i int, s S) error,
	consume func(i int, s S) error) (int, error) {
	workers := Workers(concurrency, n)
	if workers == 1 {
		s := newSlot()
		for i := 0; i < n; i++ {
			if err := produce(i, s); err != nil {
				return i, err
			}
			if err := work(0, i, s); err != nil {
				return i, err
			}
			if err := consume(i, s); err != nil {
				return i, err
			}
		}
		return -1, nil
	}

	type slot struct {
		i    int
		v    S
		err  error         // work's result
		done chan struct{} // signalled once work has run
	}
	limit := workers + 1
	todo := make(chan *slot, limit) // never blocks: at most limit in flight
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for s := range todo {
				s.err = work(worker, s.i, s.v)
				s.done <- struct{}{}
			}
		}(w)
	}
	// On an early return the items still queued are worked and
	// dropped: at most limit of them.
	defer func() {
		close(todo)
		wg.Wait()
	}()

	free := make([]*slot, 0, limit)
	queue := make([]*slot, 0, limit) // in flight, in index order
	// retire consumes the oldest in-flight item once its work is done,
	// waiting for it only when block is set. It reports whether an item
	// was retired.
	retire := func(block bool) (bool, int, error) {
		h := queue[0]
		if block {
			<-h.done
		} else {
			select {
			case <-h.done:
			default:
				return false, -1, nil
			}
		}
		copy(queue, queue[1:])
		queue = queue[:len(queue)-1]
		if h.err != nil {
			return true, h.i, h.err
		}
		if err := consume(h.i, h.v); err != nil {
			return true, h.i, err
		}
		free = append(free, h)
		return true, -1, nil
	}
	failedAt, failure := -1, error(nil) // produce's failure, if any
	for i := 0; i < n; i++ {
		// Consume whatever has finished, in order; block only when
		// every slot is in flight.
		for len(queue) > 0 {
			ok, at, err := retire(len(queue) == limit)
			if err != nil {
				return at, err
			}
			if !ok {
				break
			}
		}
		var s *slot
		if k := len(free); k > 0 {
			s, free = free[k-1], free[:k-1]
		} else {
			s = &slot{v: newSlot(), done: make(chan struct{}, 1)}
		}
		s.i = i
		if err := produce(i, s.v); err != nil {
			failedAt, failure = i, err
			break
		}
		queue = append(queue, s)
		todo <- s
	}
	// Every item before a produce failure is still consumed, as the
	// serial loop would have consumed it before producing the next.
	for len(queue) > 0 {
		if _, at, err := retire(true); err != nil {
			return at, err
		}
	}
	return failedAt, failure
}
