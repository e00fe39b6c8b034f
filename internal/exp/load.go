package exp

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsg/client"
)

// load is the closed-loop traffic driver of the serving experiments:
// workers goroutines, each with its own client for url, call
// op(cl, w, i) for i = 0, 1, ... and sleep pause after each call. Every
// op waits for its reply before the next one starts, so the offered
// load follows the service time; the open-loop generator lives in
// perfbench. A failed op is counted and the worker carries on.
type load struct {
	url     string
	opts    []client.Option
	workers int
	per     int // ops per worker; 0 runs until stop
	pause   time.Duration
	op      func(cl *client.Client, w, i int) error
}

// loadResult is what a load did.
type loadResult struct {
	ops, failed int
	// first is the first failure of the lowest-numbered worker that
	// failed.
	first error
	// lat holds every op's latency, failed ones included, worker by
	// worker in op order: op i of worker w is lat[w*per+i] in a
	// count-bound load.
	lat     []time.Duration
	elapsed time.Duration
}

// loadRun is a started load.
type loadRun struct {
	halt    atomic.Bool
	wg      sync.WaitGroup
	start   time.Time
	workers []loadResult // each written only by its own worker
}

func (l load) start() *loadRun {
	r := &loadRun{start: time.Now(), workers: make([]loadResult, l.workers)}
	for w := range r.workers {
		r.wg.Add(1)
		go func(w int) {
			defer r.wg.Done()
			cl := client.New(l.url, l.opts...)
			res := &r.workers[w]
			res.lat = make([]time.Duration, 0, l.per)
			for i := 0; (l.per == 0 || i < l.per) && !r.halt.Load(); i++ {
				t0 := time.Now()
				err := l.op(cl, w, i)
				res.lat = append(res.lat, time.Since(t0))
				res.ops++
				if err != nil {
					res.failed++
					if res.first == nil {
						res.first = err
					}
				}
				time.Sleep(l.pause)
			}
		}(w)
	}
	return r
}

// run drives a count-bound load to completion.
func (l load) run() loadResult { return l.start().wait() }

// wait blocks until every worker has finished and sums their results.
func (r *loadRun) wait() loadResult {
	r.wg.Wait()
	out := loadResult{elapsed: time.Since(r.start)}
	for _, w := range r.workers {
		out = out.add(w)
	}
	return out
}

// stop ends the load: each worker finishes the op it is in and exits
// before stop returns.
func (r *loadRun) stop() loadResult {
	r.halt.Store(true)
	return r.wait()
}

// add merges o into r; o's first error counts only when r has none.
func (r loadResult) add(o loadResult) loadResult {
	r.ops += o.ops
	r.failed += o.failed
	if r.first == nil {
		r.first = o.first
	}
	r.lat = append(r.lat, o.lat...)
	r.elapsed = max(r.elapsed, o.elapsed)
	return r
}

// check is the zero-failed-requests gate.
func (r loadResult) check(what string) error {
	if r.failed > 0 {
		return fmt.Errorf("%d of %d client requests failed %s (first: %w)", r.failed, r.ops, what, r.first)
	}
	return nil
}

// quantile returns the pct-th percentile of ds, the sample at rank
// ⌊n·pct/100⌋ of the sorted copy (the upper middle for pct 50, even n).
func quantile(ds []time.Duration, pct int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*pct/100]
}
