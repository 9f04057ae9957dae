package experiments

import (
	"runtime"
	"sync"
	"time"

	"cable/internal/obs"
)

// This file is the experiment-level half of the parallel execution
// layer: a bounded worker pool that fans independent drivers out
// across goroutines while delivering results in paper order. The
// cell-level half (cellRun) parallelizes the per-(benchmark, scheme)
// loops inside the heavy drivers; both halves share Options.Parallelism
// and both are determinism-preserving — a parallel run produces tables
// byte-identical to a serial one because every cell seeds its own
// generators and rows are committed in loop order.

// workers resolves Options.Parallelism to a concrete pool size.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runnerCounters tracks experiment/cell progress: counts of completed
// work, deterministic at any -parallel. Both are resolved wherever
// either is counted, so a -metrics dump names experiments.completed
// (at 0) even when one experiment ran without RunAllStream.
type runnerCounters struct {
	experiments *obs.Counter
	cells       *obs.Counter
}

func runnerMetrics() runnerCounters {
	r := obs.Default()
	return runnerCounters{
		experiments: r.Counter("experiments.completed"),
		cells:       r.Counter("experiments.cells"),
	}
}

// StreamResult is one completed experiment as delivered by
// RunAllStream: the driver's Result (or error), plus the wall-clock
// time the driver itself took. Index is the position within the ids
// slice the stream was started with.
type StreamResult struct {
	Index   int
	ID      string
	Result  *Result
	Err     error
	Elapsed time.Duration
}

// RunAll executes the given experiments across a bounded worker pool
// and returns their results in the order ids were given (paper order
// when ids comes from IDs()). The first driver error is returned after
// all workers drain; results for failed experiments are nil.
func RunAll(ids []string, opt Options) ([]*Result, error) {
	results := make([]*Result, len(ids))
	var firstErr error
	for sr := range RunAllStream(ids, opt) {
		if sr.Err != nil {
			if firstErr == nil {
				firstErr = sr.Err
			}
			continue
		}
		results[sr.Index] = sr.Result
	}
	return results, firstErr
}

// RunAllStream executes the given experiments across a bounded worker
// pool and streams results over the returned channel in ids order —
// each result is delivered as soon as it AND every earlier experiment
// have finished, so a consumer can print incrementally without ever
// reordering the report. The channel closes after the last result.
func RunAllStream(ids []string, opt Options) <-chan StreamResult {
	out := make(chan StreamResult)
	slots := make([]chan StreamResult, len(ids))
	for i := range slots {
		slots[i] = make(chan StreamResult, 1)
	}
	sem := make(chan struct{}, opt.workers())
	mx := runnerMetrics()
	for i, id := range ids {
		go func(i int, id string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			res, err := Run(id, opt)
			elapsed := time.Since(start)
			mx.experiments.Inc(obs.NextShard())
			slots[i] <- StreamResult{
				Index:   i,
				ID:      id,
				Result:  res,
				Err:     err,
				Elapsed: elapsed,
			}
		}(i, id)
	}
	go func() {
		defer close(out)
		for i := range slots {
			out <- <-slots[i]
		}
	}()
	return out
}

// cellRun executes fn(i) for every i in [0, n) across a pool of at
// most workers goroutines. It is the inner-parallelism primitive for
// drivers whose cells (one benchmark × scheme, one sweep point) are
// independent: fn writes into its own slot of a pre-sized result
// slice, and the caller commits slots into the stats.Table serially in
// loop order afterwards, which keeps row/column order — and therefore
// the rendered table bytes — identical to a serial run. Any worker
// count takes the same path: at workers <= 1 one goroutine runs every
// cell in index order.
func cellRun(workers, n int, fn func(int)) {
	done := runnerMetrics().cells
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			shard := obs.NextShard()
			for i := range next {
				fn(i)
				done.Inc(shard)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// cells is the collection primitive over cellRun: it runs fn for every
// i in [0, n) across the cell pool and returns the results in index
// order, or the first error in index order — the one a serial loop
// would have surfaced.
func cells[R any](opt Options, n int, fn func(i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	errs := make([]error, n)
	cellRun(opt.workers(), n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
