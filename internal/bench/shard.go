package bench

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/solver"
)

// memCache is the minimal shard.Cache: a mutex map. The warm-cache case
// below measures the compositional-caching win, and the cache itself must
// not be the interesting cost.
type memCache struct {
	mu sync.Mutex
	m  map[string]*core.Schedule
}

func (c *memCache) Get(key string) (*core.Schedule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	return s, ok
}

func (c *memCache) Put(key string, s *core.Schedule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = s
}

// runShardCases benchmarks the PR 9 partition-solve-stitch pipeline on the
// instance class it exists for: a large unit-disk graph under greedy
// recruitment. The whole-graph solve is the reference case; the sharded
// cases run the full pipeline — geometric partition, per-shard solves on a
// transient pool, boundary-repair stitch — and carry the whole-graph time
// as their baseline, so Speedup is whole-graph time over pipeline time:
// above 1 only when the concurrent per-shard solves save more than the
// partition and the stitch cost. The cache=warm case
// re-runs the 4-shard pipeline with every per-shard schedule already
// cached — the serving path's cost for a repeated or single-tile-delta
// request — against the cold 4-shard run as baseline: Speedup there is
// what content addressing saves when nothing (or almost nothing) changed.
func runShardCases(quick bool) []Case {
	n := 2048
	if quick {
		n = 512
	}
	radius := 2.0 * math.Sqrt(math.Log(float64(n))/float64(n))
	g, pts := gen.RandomUDG(n, 1, radius, rng.New(9))
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = 8
	}
	spec := solver.Spec{Name: solver.NameGreedy}
	in := instance.New(g, budgets)

	whole := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(in, spec,
				solver.Options{Tries: 1, Src: rng.New(9)}); err != nil {
				b.Fatalf("solver.Solve: %v", err)
			}
		}
	})
	wholeNs := float64(whole.NsPerOp())

	pipeline := func(p *shard.Partition, cache shard.Cache) {
		solved, err := shard.SolveShards(in, p, shard.Options{
			Spec: spec, Seed: 9, TransientPool: true, Cache: cache,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: SolveShards: %v", err))
		}
		if _, err := shard.Stitch(in, p, solved, obs.Hooks{}); err != nil {
			panic(fmt.Sprintf("bench: Stitch: %v", err))
		}
	}
	partition := func(shards int) *shard.Partition {
		p, err := shard.Geometric(g, pts, shards)
		if err != nil {
			panic(fmt.Sprintf("bench: Geometric(%d): %v", shards, err))
		}
		return p
	}

	cases := []Case{toCase(fmt.Sprintf("shard/whole/n=%d", n), whole, 0)}
	var coldNs4 float64
	for _, shards := range []int{4, 16} {
		p := partition(shards)
		cold := run(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pipeline(p, nil)
			}
		})
		if shards == 4 {
			coldNs4 = float64(cold.NsPerOp())
		}
		cases = append(cases, toCase(
			fmt.Sprintf("shard/stitch/shards=%d/n=%d", shards, n), cold, wholeNs))
	}

	p4 := partition(4)
	cache := &memCache{m: make(map[string]*core.Schedule)}
	pipeline(p4, cache) // fill every per-shard key
	warm := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipeline(p4, cache)
		}
	})
	cases = append(cases, toCase(
		fmt.Sprintf("shard/stitch/shards=4/cache=warm/n=%d", n), warm, coldNs4))
	return cases
}

// runFoldParCases benchmarks the parallel row-fold of domset.Checker (PR 9):
// the same dense CoveredCount fold, sequential versus chunked across a
// worker pool via SetPool. The fixture is sized so the fold clears the
// parFoldMinWork gate (candidates × row words); below it SetPool
// deliberately stays sequential and there would be nothing to measure.
// Speedup is the fold-level parallel win — sublinear in workers, since the
// membership fill and the final popcount stay on the calling goroutine, and
// (like solver/Solve/race) ≈ 1.0 on a single-core runner, where SetPool
// builds one chunk and the fold stays sequential by construction.
func runFoldParCases(quick bool) []Case {
	n := 4096
	if quick {
		n = 1024
	}
	inst := newKernelInstance(n, []int{2})
	set := inst.sets[2]

	seq := domset.NewChecker(inst.g)
	seq.CoveredCount(set, 2, inst.alive) // warm scratch
	serial := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.CoveredCount(set, 2, inst.alive)
		}
	})

	pool := par.NewPool(runtime.GOMAXPROCS(0), 2*runtime.GOMAXPROCS(0))
	defer pool.Close()
	pck := domset.NewChecker(inst.g)
	pck.SetPool(pool)
	pck.CoveredCount(set, 2, inst.alive)
	parl := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pck.CoveredCount(set, 2, inst.alive)
		}
	})
	return []Case{
		toCase(fmt.Sprintf("kernel/FoldPar/n=%d/k=2", n), parl, float64(serial.NsPerOp())),
	}
}
