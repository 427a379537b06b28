package shard_test

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/solver"
)

type mapCache struct {
	mu   sync.Mutex
	m    map[string]*core.Schedule
	hits int
	puts int
}

func newMapCache() *mapCache { return &mapCache{m: map[string]*core.Schedule{}} }

func (c *mapCache) Get(key string) (*core.Schedule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	if ok {
		c.hits++
	}
	return s, ok
}

func (c *mapCache) Put(key string, s *core.Schedule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = s
}

func stitchOnce(t *testing.T, g *graph.Graph, pts []geom.Point, budgets []int, method string, shards, k int, seed uint64, cache shard.Cache) (*shard.Partition, []*shard.ShardResult, *shard.Stitched) {
	t.Helper()
	p, err := shard.ByName(method, g, pts, shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	in := instance.New(g, budgets).WithK(k)
	opt := shard.Options{
		Spec:  solver.Spec{Name: solver.NameGreedy},
		Seed:  seed,
		Cache: cache,
	}
	solved, err := shard.SolveShards(in, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.Stitch(in, p, solved, obs.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return p, solved, st
}

// TestStitchedSchedulesDominats is satellite property #1: every phase of a
// stitched schedule k-dominates the FULL graph, checked two independent
// ways — a fresh Reset per phase and an incremental Session driven by
// flips across phases — and the two paths must agree byte for byte on the
// undominated list (empty both ways). Energy usage must respect budgets.
func TestStitchedSchedulesDominate(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 4; trial++ {
		n := 60 + src.Intn(120)
		g, pts := gen.RandomUDG(n, 10, 2.4, src)
		budgets := make([]int, n)
		for v := range budgets {
			if trial%2 == 0 {
				budgets[v] = 4
			} else {
				budgets[v] = 2 + src.Intn(5) // heterogeneous
			}
		}
		for _, method := range []string{"bfs", "geom"} {
			for _, shards := range []int{2, 4, 7} {
				for _, k := range []int{1, 2} {
					_, _, st := stitchOnce(t, g, pts, budgets, method, shards, k, uint64(31+trial), nil)
					if st.Schedule.Lifetime() == 0 {
						t.Fatalf("%s/%d-shard k=%d: stitched lifetime 0", method, shards, k)
					}
					oneShot := domset.NewSession(g)
					sess := domset.NewSession(g).Reset(nil, k, nil)
					cur := make([]bool, n)
					for pi, ph := range st.Schedule.Phases {
						// Fresh path: one Reset per phase.
						fresh := oneShot.Reset(ph.Set, k, nil).AppendUndominated(nil)
						// Session path: flip the symmetric difference.
						want := make([]bool, n)
						for _, v := range ph.Set {
							want[v] = true
						}
						for v := 0; v < n; v++ {
							if cur[v] != want[v] {
								sess.Flip(v)
								cur[v] = want[v]
							}
						}
						inc := sess.AppendUndominated(nil)
						if !reflect.DeepEqual(fresh, inc) {
							t.Fatalf("%s/%d-shard k=%d phase %d: fresh Reset says undominated=%v, session says %v",
								method, shards, k, pi, fresh, inc)
						}
						if len(fresh) != 0 {
							t.Fatalf("%s/%d-shard k=%d phase %d: not %d-dominating, holes at %v",
								method, shards, k, pi, k, fresh)
						}
					}
					usage := st.Schedule.Usage(n)
					for v, u := range usage {
						if u > budgets[v] {
							t.Fatalf("%s/%d-shard k=%d: node %d used %d of budget %d",
								method, shards, k, v, u, budgets[v])
						}
					}
				}
			}
		}
	}
}

// TestStitchWholeGraphIsPassthrough pins the degenerate case: a one-shard
// partition has no boundaries, so stitching must reproduce the shard's own
// schedule (compacted) with no repairs or replans.
func TestStitchWholeGraphIsPassthrough(t *testing.T) {
	src := rng.New(17)
	g, pts := gen.RandomUDG(80, 8, 2.2, src)
	budgets := make([]int, g.N())
	for v := range budgets {
		budgets[v] = 3
	}
	_, solved, st := stitchOnce(t, g, pts, budgets, "geom", 1, 1, 7, nil)
	if st.Repairs != 0 || st.Replans != 0 || st.Degraded {
		t.Fatalf("one-shard stitch did repair work: %+v", st)
	}
	if got, want := st.Schedule.Lifetime(), solved[0].Schedule.Lifetime(); got != want {
		t.Fatalf("one-shard stitch lifetime %d, shard schedule has %d", got, want)
	}
}

// TestSolveShardsDeterministicAndCached pins two contracts at once: same
// (partition, seed) gives identical schedules across runs, and a warm
// content-addressed cache serves every shard without re-solving.
func TestSolveShardsDeterministicAndCached(t *testing.T) {
	src := rng.New(23)
	g, pts := gen.RandomUDG(140, 10, 2.3, src)
	budgets := make([]int, g.N())
	for v := range budgets {
		budgets[v] = 3 + v%3
	}
	p, err := shard.Geometric(g, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapCache()
	in := instance.New(g, budgets)
	opt := shard.Options{Spec: solver.Spec{Name: solver.NameGreedy}, Seed: 99, Cache: cache}
	a, err := shard.SolveShards(in, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range a {
		if sr.Cached {
			t.Fatalf("shard %d claims a cache hit on a cold cache", sr.Shard.Index)
		}
	}
	if cache.puts != len(p.Shards) {
		t.Fatalf("%d cache puts for %d shards", cache.puts, len(p.Shards))
	}

	// Cold second run, no cache: byte-identical schedules.
	b, err := shard.SolveShards(in, p, shard.Options{Spec: opt.Spec, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Schedule, b[i].Schedule) {
			t.Fatalf("shard %d: schedules differ across identical runs", a[i].Shard.Index)
		}
		if a[i].Key != b[i].Key {
			t.Fatalf("shard %d: keys differ across identical runs", a[i].Shard.Index)
		}
	}

	// Warm run: every shard is a hit with the same schedule.
	c, err := shard.SolveShards(in, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if !c[i].Cached {
			t.Fatalf("shard %d missed a warm cache", c[i].Shard.Index)
		}
		if !reflect.DeepEqual(a[i].Schedule, c[i].Schedule) {
			t.Fatalf("shard %d: cached schedule differs from solved one", c[i].Shard.Index)
		}
	}

	// A different seed must produce different keys (no false sharing).
	d, err := shard.SolveShards(in, p, shard.Options{Spec: opt.Spec, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		if d[i].Key == a[i].Key {
			t.Fatalf("shard %d: same key under different seeds", d[i].Shard.Index)
		}
	}
}

// TestSolveShardsConcurrent runs the pooled path under load; with -race this
// doubles as the data-race check for the shared hooks/cache/abort state.
// The race-width case nests the fan-outs: each concurrent shard solve races
// its own seeded attempts.
func TestSolveShardsConcurrent(t *testing.T) {
	src := rng.New(29)
	g, pts := gen.RandomUDG(200, 12, 2.2, src)
	budgets := make([]int, g.N())
	for v := range budgets {
		budgets[v] = 3
	}
	p, err := shard.Geometric(g, pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := instance.New(g, budgets)
	cases := []struct {
		name   string
		spec   solver.Spec
		solver solver.Options
	}{
		{"greedy", solver.Spec{Name: solver.NameGreedy}, solver.Options{}},
		{"uniform-race-width=3", solver.Spec{Name: solver.NameUniform}, solver.Options{Tries: 4, RaceWidth: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := shard.Options{
				Spec:          c.spec,
				Solver:        c.solver,
				Seed:          5,
				TransientPool: true,
				Cache:         newMapCache(),
			}
			par1, err := shard.SolveShards(in, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := shard.SolveShards(in, p, shard.Options{Spec: c.spec, Solver: c.solver, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for i := range par1 {
				if !reflect.DeepEqual(par1[i].Schedule, seq[i].Schedule) {
					t.Fatalf("shard %d: pooled and sequential solves disagree", par1[i].Shard.Index)
				}
			}
			st, err := shard.Stitch(in, p, par1, obs.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Schedule.Lifetime() == 0 {
				t.Fatal("stitched lifetime 0")
			}
		})
	}
}

// TestSolveShardsCanceled: a pre-fired cancel surfaces as ErrCanceled.
func TestSolveShardsCanceled(t *testing.T) {
	src := rng.New(31)
	g, pts := gen.RandomUDG(60, 8, 2.5, src)
	budgets := make([]int, g.N())
	for v := range budgets {
		budgets[v] = 3
	}
	p, err := shard.Geometric(g, pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.Options{
		Spec:   solver.Spec{Name: solver.NameGreedy},
		Solver: solver.Options{Cancel: func() bool { return true }},
	}
	if _, err := shard.SolveShards(instance.New(g, budgets), p, opt); err != solver.ErrCanceled {
		t.Fatalf("got %v, want solver.ErrCanceled", err)
	}
}

// BenchmarkPipeline times the partition-solve-stitch pipeline on the instance
// class it exists for: a unit-disk graph with n = 2048 under greedy
// recruitment. whole is the unsharded solve the pipeline competes with;
// shards=4 and shards=16 run the geometric partition's per-shard solves on a
// transient pool plus the boundary-repair stitch, with no cache;
// shards=4/warm reruns the 4-shard pipeline with every per-shard schedule
// already cached, the serving path's cost for a repeated or single-tile
// delta request.
func BenchmarkPipeline(b *testing.B) {
	n := 2048
	radius := 2.0 * math.Sqrt(math.Log(float64(n))/float64(n))
	g, pts := gen.RandomUDG(n, 1, radius, rng.New(9))
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = 8
	}
	spec := solver.Spec{Name: solver.NameGreedy}
	in := instance.New(g, budgets)
	b.Run("whole", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(in, spec, solver.Options{Tries: 1, Src: rng.New(9)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	pipeline := func(b *testing.B, p *shard.Partition, cache shard.Cache) {
		solved, err := shard.SolveShards(in, p, shard.Options{
			Spec: spec, Seed: 9, TransientPool: true, Cache: cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := shard.Stitch(in, p, solved, obs.Hooks{}); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		shards int
		warm   bool
	}{{"shards=4", 4, false}, {"shards=16", 16, false}, {"shards=4/warm", 4, true}} {
		p, err := shard.Geometric(g, pts, c.shards)
		if err != nil {
			b.Fatal(err)
		}
		var cache shard.Cache
		if c.warm {
			cache = newMapCache()
			pipeline(b, p, cache) // fill every per-shard key
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pipeline(b, p, cache)
			}
		})
	}
}

// TestStitchMemoryLinear pins the stitcher's memory to O(n + m): stitching
// a 4-shard BFS partition of a sparse 16 384-node ring must allocate a few
// MB, not the n²/64 words (34 MB) a packed coverage row per node costs. Not
// parallel, so the TotalAlloc delta counts this test's allocations alone.
func TestStitchMemoryLinear(t *testing.T) {
	const n = 16384
	g := gen.Ring(n)
	budgets := make([]int, n)
	for v := range budgets {
		budgets[v] = 6
	}
	in := instance.New(g, budgets)
	p, err := shard.BFS(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := shard.SolveShards(in, p, shard.Options{Spec: solver.Spec{Name: solver.NameGreedy}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := shard.Stitch(in, p, solved, obs.Hooks{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Schedule.Lifetime() == 0 {
		t.Fatal("stitched lifetime 0")
	}
	grown := after.TotalAlloc - before.TotalAlloc
	t.Logf("Stitch on Ring(%d) allocated %.1f MiB", n, float64(grown)/(1<<20))
	if grown >= 8<<20 {
		t.Fatalf("Stitch on Ring(%d) allocated %.1f MiB, want < 8 MiB", n, float64(grown)/(1<<20))
	}
}
