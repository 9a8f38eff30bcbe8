// Package par holds the tiny fan-out helpers shared by the repo's
// parallel paths: run n independent tasks over a bounded worker pool,
// with or without context-based cancellation. Callers include batch
// classification and portfolio bulk bring-up and snapshot restore, where
// each task is one building's whole fit or load. With an effective
// worker count of one, every helper runs indices 0..n-1 in order on the
// caller's goroutine.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(i) for every i in [0, n), spreading calls over up to
// GOMAXPROCS goroutines. It returns when all calls have finished. fn must
// be safe for concurrent invocation; with one worker (or n <= 1) calls
// run sequentially on the caller's goroutine.
func ForEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachCtx is ForEach with cancellation: workers stop claiming new
// indices once ctx is done, so a long batch aborts promptly on timeout or
// client disconnect instead of grinding through the remaining work. fn is
// never invoked for unclaimed indices; callers that need a per-item
// verdict for every slot should record which indices ran and fill the
// rest with the returned error. ForEachCtx returns ctx.Err() as observed
// after all claimed work finished (nil when the batch completed).
func ForEachCtx(ctx context.Context, n int, fn func(i int)) error {
	return ForEachCtxBounded(ctx, n, 0, fn)
}

// ForEachCtxBounded is ForEachCtx with an explicit worker cap, for tasks
// whose per-item cost is heavy enough (model fits, snapshot loads) that
// the caller wants to bound memory or leave cores for serving traffic.
// workers <= 0 means GOMAXPROCS.
func ForEachCtxBounded(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// ForEachCtxFill is ForEachCtx for callers that need a per-index verdict
// on every slot: indices never claimed because ctx was done are passed to
// fill with the context's error, so a cancelled batch still reports a
// complete parallel error slice. Exactly one of fn(i) / fill(i, err) runs
// for each index.
func ForEachCtxFill(ctx context.Context, n int, fn func(i int), fill func(i int, err error)) error {
	return ForEachCtxFillBounded(ctx, n, 0, fn, fill)
}

// ForEachCtxFillBounded is ForEachCtxFill with an explicit worker cap
// (workers <= 0 means GOMAXPROCS).
func ForEachCtxFillBounded(ctx context.Context, n, workers int, fn func(i int), fill func(i int, err error)) error {
	started := make([]bool, n)
	err := ForEachCtxBounded(ctx, n, workers, func(i int) {
		started[i] = true
		fn(i)
	})
	if err != nil {
		for i := range started {
			if !started[i] {
				fill(i, err)
			}
		}
	}
	return err
}
