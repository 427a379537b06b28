// Package par holds the deterministic-parallelism primitives: ForEach and
// Map, data-parallel loops over independent tasks (experiment trials, raced
// solver attempts, concurrent shard solves), and Pool, the serving layer's
// long-lived job queue. Determinism is preserved by the caller pre-splitting
// per-task randomness (rng.Source.SplitN) before fanning out, so results are
// identical to the sequential execution regardless of scheduling.
package par

import (
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines. It returns when all calls complete. fn must not panic; a
// panic in fn propagates and crashes the process, as with any goroutine.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
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
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
