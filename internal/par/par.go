// Package par holds the deterministic-parallelism primitives: ForEach and
// Map, data-parallel loops over independent tasks with bounded workers
// (experiment trials, raced solver attempts, concurrent shard solves), and
// Pool, the serving layer's long-lived job queue. Determinism is preserved
// by the caller pre-splitting per-task randomness (rng.Source.SplitN)
// before fanning out, so results are identical to the sequential execution
// regardless of scheduling.
package par

import (
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n), using up to workers goroutines
// (workers <= 0 means GOMAXPROCS). It returns when all calls complete.
// fn must not panic; a panic in fn propagates and crashes the process, as
// with any goroutine.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn over [0, n) in parallel and collects the results in order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}
