package reconfig

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/solver"
)

// assertInvariant is the slot-by-slot acceptance check of the issue: every
// positive-duration phase the planner emitted must k-dominate the alive
// nodes, and cumulative usage must stay within the plan's budgets. It runs
// on every plan, degraded or not — a truncated violation plan's surviving
// prefix must still hold the invariant.
func assertInvariant(t *testing.T, p *Plan, k int) {
	t.Helper()
	sess := domset.NewSession(p.Graph)
	usage := make([]int, p.Graph.N())
	for i, ph := range p.Phases {
		if ph.Duration <= 0 {
			t.Fatalf("phase %d has duration %d", i, ph.Duration)
		}
		if !sess.Reset(ph.Set, k, p.Alive).IsKDominating() {
			t.Fatalf("phase %d set %v is not %d-dominating (alive %v)", i, ph.Set, k, p.Alive)
		}
		for _, v := range ph.Set {
			usage[v] += ph.Duration
			if usage[v] > p.Budgets[v] {
				t.Fatalf("phase %d overdraws node %d: usage %d > budget %d",
					i, v, usage[v], p.Budgets[v])
			}
		}
	}
}

func TestComputeCleanOverlap(t *testing.T) {
	// Path 0-1-2; node 1 dominates alone. The delta adds a pendant node 3 on
	// node 0, so the incoming schedule must re-cover while the outgoing
	// dominator {1} stays awake through the overlap window.
	g := graph.NewFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	budgets := []int{5, 5, 5}
	s := sched.Replan(g, budgets, 1, nil)
	if s.Lifetime() == 0 {
		t.Fatal("no initial schedule")
	}
	at := 1
	residual := make([]int, 3)
	used := s.UsagePrefix(3, at)
	for v := range residual {
		residual[v] = budgets[v] - used[v]
	}
	outgoing := s.ActiveAt(at)

	mem := &obs.Memory{}
	p, err := Compute(instance.New(g, residual), Request{
		Old: s, At: at,
		Delta: graph.Delta{
			AddNodes:   1,
			NewBudgets: []int{5},
			AddEdges:   [][2]int{{0, 3}},
		},
		Overlap: 2,
		Hooks:   obs.Hooks{Trace: mem},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation || p.Degraded {
		t.Fatalf("want clean plan, got degraded=%v violation=%v", p.Degraded, p.Violation)
	}
	if p.Overlap != 2 {
		t.Fatalf("overlap = %d, want 2", p.Overlap)
	}
	if p.Graph.N() != 4 || len(p.Budgets) != 4 {
		t.Fatalf("post-delta world n=%d budgets=%v", p.Graph.N(), p.Budgets)
	}
	assertInvariant(t, p, 1)

	// The outgoing dominators must be awake throughout the overlap window.
	slot := 0
	for _, ph := range p.Phases {
		for d := 0; d < ph.Duration && slot < p.Overlap; d++ {
			for _, o := range outgoing {
				found := false
				for _, v := range ph.Set {
					if v == p.Mapping[o] {
						found = true
					}
				}
				if !found {
					t.Fatalf("overlap slot %d set %v misses outgoing node %d", slot, ph.Set, o)
				}
			}
			slot++
		}
	}
	if mem.Count(obs.EvReconfig) != 1 {
		t.Fatalf("want 1 reconfig event, got %d", mem.Count(obs.EvReconfig))
	}
	if ev := mem.Events[len(mem.Events)-1]; ev.Name != "clean" || ev.A != p.Overlap || ev.B != p.OverlapEnergy {
		t.Fatalf("reconfig event %+v does not match plan", ev)
	}
}

func TestComputeDegradedLadder(t *testing.T) {
	// Star: center 0 serves first; the delta zeroes the center's remaining
	// budget, so no outgoing node can pay for any overlap and the ladder
	// bottoms out at a pure swap, flagged degraded.
	g := graph.NewFromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	budgets := []int{10, 3, 3, 3, 3}
	s := sched.Replan(g, budgets, 1, nil)
	at := 2
	residual := budgets // center still has 8 left, but the delta zeroes it
	mem := &obs.Memory{}
	p, err := Compute(instance.New(g, residual), Request{
		Old: s, At: at,
		Delta:   graph.Delta{SetBudgets: []graph.BudgetUpdate{{Node: 0, Budget: 0}}},
		Overlap: 2,
		Hooks:   obs.Hooks{Trace: mem},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation {
		t.Fatal("unexpected violation")
	}
	if !p.Degraded || p.Overlap != 0 {
		t.Fatalf("want degraded pure swap, got degraded=%v overlap=%d", p.Degraded, p.Overlap)
	}
	if p.Lifetime() == 0 {
		t.Fatal("leaves can still serve; want a non-empty swap schedule")
	}
	assertInvariant(t, p, 1)
	if ev := mem.Events[len(mem.Events)-1]; ev.Name != "degraded" {
		t.Fatalf("want degraded event, got %+v", ev)
	}
}

func TestComputeSolverFallback(t *testing.T) {
	// A non-greedy solver with an alive mask cannot run through the WHP
	// driver; the planner falls back to Replan and flags the plan degraded.
	g := graph.NewFromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	s := sched.Replan(g, []int{4, 4, 4}, 1, nil)
	p, err := Compute(instance.New(g, []int{4, 4, 4}), Request{
		Old: s, At: 0,
		Alive:  []bool{true, true, true},
		Solver: solver.NameUniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation || !p.Degraded {
		t.Fatalf("want degraded fallback, got degraded=%v violation=%v", p.Degraded, p.Violation)
	}
	if p.Lifetime() == 0 {
		t.Fatal("fallback produced no schedule")
	}
	assertInvariant(t, p, 1)
}

func TestComputeSolverPrimary(t *testing.T) {
	// Uniform budgets, no alive mask, pure swap: the requested randomized
	// solver runs as the primary and the plan is clean.
	g := gen.GNP(24, 0.3, rng.New(5))
	budgets := make([]int, 24)
	for v := range budgets {
		budgets[v] = 6
	}
	s := sched.Replan(g, budgets, 1, nil)
	p, err := Compute(instance.New(g, budgets), Request{
		Old: s, At: 0,
		Solver: solver.NameUniform, Seed: 11, Tries: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation || p.Degraded {
		t.Fatalf("want clean primary-solver plan, got degraded=%v violation=%v", p.Degraded, p.Violation)
	}
	assertInvariant(t, p, 1)
}

func TestComputeViolationWhenInfeasible(t *testing.T) {
	g := graph.NewFromEdges(2, [][2]int{{0, 1}})
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 1}}}
	mem := &obs.Memory{}
	p, err := Compute(instance.New(g, []int{0, 0}), Request{
		Old: s, At: 1,
		Overlap: 2,
		Hooks:   obs.Hooks{Trace: mem},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Violation || len(p.Phases) != 0 {
		t.Fatalf("exhausted network must flag a violation: %+v", p)
	}
	if ev := mem.Events[len(mem.Events)-1]; ev.Name != "violation" {
		t.Fatalf("want violation event, got %+v", ev)
	}
}

func TestComputeVacuousWhenAllDead(t *testing.T) {
	g := graph.NewFromEdges(2, [][2]int{{0, 1}})
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 1}}}
	p, err := Compute(instance.New(g, []int{3, 3}), Request{
		Old: s, At: 0,
		Alive:   []bool{false, false},
		Overlap: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation {
		t.Fatal("no alive node needs coverage; empty plan is not a violation")
	}
	if len(p.Phases) != 0 {
		t.Fatalf("want empty plan, got %v", p.Phases)
	}
}

func TestComputeRequestErrors(t *testing.T) {
	g := graph.NewFromEdges(2, [][2]int{{0, 1}})
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 2}}}
	ok := Request{Old: s, At: 0}
	residual := []int{1, 1}
	cases := []struct {
		name string
		mut  func(*Request)
		res  []int // instance budgets override (nil = residual)
		want string
	}{
		{"nil old", func(r *Request) { r.Old = nil }, nil, "nil old schedule"},
		{"negative at", func(r *Request) { r.At = -1 }, nil, "must be >= 0"},
		{"negative overlap", func(r *Request) { r.Overlap = -1 }, nil, "overlap"},
		{"alive length", func(r *Request) { r.Alive = []bool{true} }, nil, "alive flags"},
		{"unknown solver", func(r *Request) { r.Solver = "nope" }, nil, "unknown algorithm"},
		{"bad delta", func(r *Request) { r.Delta = graph.Delta{RemoveNodes: []int{9}} }, nil, "out of range"},
		{"bad residual", func(r *Request) {}, []int{1}, "budgets for"},
	}
	for _, tc := range cases {
		req := ok
		tc.mut(&req)
		res := residual
		if tc.res != nil {
			res = tc.res
		}
		_, err := Compute(instance.New(g, res), req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if tc.res != nil || req.Delta.RemoveNodes != nil {
			continue // a delta error, which ComputeApplied's caller meets in Apply
		}
		_, err = ComputeApplied(instance.New(g, res), g, res, []int{0, 1}, req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ComputeApplied err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := Compute(nil, ok); err == nil || !strings.Contains(err.Error(), "nil instance") {
		t.Errorf("nil instance: err = %v, want substring %q", err, "nil instance")
	}
}

func TestComputeCancel(t *testing.T) {
	g := graph.NewFromEdges(2, [][2]int{{0, 1}})
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 2}}}
	_, err := Compute(instance.New(g, []int{1, 1}), Request{
		Old: s, At: 0,
		Cancel: func() bool { return true },
	})
	if err != solver.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// randomValidDelta builds a delta that is valid against g by construction:
// drop the highest-ID node, add a replacement wired to random survivors, and
// revise one surviving budget.
func randomValidDelta(g *graph.Graph, src *rng.Source) graph.Delta {
	n := g.N()
	if n < 4 {
		return graph.Delta{}
	}
	d := graph.Delta{
		RemoveNodes: []int{n - 1},
		AddNodes:    1,
		NewBudgets:  []int{1 + src.Intn(5)},
	}
	// Post-delta: survivors keep IDs 0..n-2, the added node is n-1 again and
	// starts isolated, so edges to it cannot collide.
	for _, v := range src.Perm(n - 1)[:3] {
		d.AddEdges = append(d.AddEdges, [2]int{v, n - 1})
	}
	d.SetBudgets = []graph.BudgetUpdate{{Node: src.Intn(n - 1), Budget: src.Intn(6)}}
	return d
}

// TestInvariantAcrossRandomTransitions is the acceptance-criteria test:
// across randomized graphs, deltas, cutover points, alive masks, overlap
// requests, and solver choices — including every degraded path — domination
// is never lost in any phase the planner emits.
func TestInvariantAcrossRandomTransitions(t *testing.T) {
	src := rng.New(42)
	solvers := []string{"", solver.NameGreedy, solver.NameUniform, solver.NameGeneral}
	for trial := 0; trial < 40; trial++ {
		n := 8 + src.Intn(24)
		g := gen.GNP(n, 0.25, src.Split())
		budgets := make([]int, n)
		for v := range budgets {
			budgets[v] = 1 + src.Intn(6)
		}
		k := 1
		if trial%5 == 4 {
			k = 2
		}
		s := sched.Replan(g, budgets, k, nil)
		at := src.Intn(s.Lifetime() + 2)
		used := s.UsagePrefix(n, at)
		residual := make([]int, n)
		for v := range residual {
			residual[v] = budgets[v] - used[v]
		}
		var alive []bool
		if trial%3 == 1 {
			alive = make([]bool, n)
			for v := range alive {
				alive[v] = src.Float64() > 0.15
			}
		}
		req := Request{
			Old: s, At: at, Alive: alive,
			Delta:   randomValidDelta(g, src),
			Overlap: src.Intn(4),
			Solver:  solvers[trial%len(solvers)],
			Seed:    uint64(trial), Tries: 5,
		}
		p, err := Compute(instance.New(g, residual).WithK(k), req)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertInvariant(t, p, k)
		if p.Overlap > req.Overlap {
			t.Fatalf("trial %d: achieved overlap %d exceeds requested %d", trial, p.Overlap, req.Overlap)
		}
		if !p.Violation && !p.Degraded && p.Overlap < req.Overlap {
			t.Fatalf("trial %d: shrunk overlap %d < %d not flagged degraded", trial, p.Overlap, req.Overlap)
		}
	}
}

// TestComputeAppliedMatchesCompute: over random graphs, schedules and
// deltas, ComputeApplied on Apply's results returns Compute's plan: the
// same phases, overlap, overlap energy, flags, mapping and graph.
func TestComputeAppliedMatchesCompute(t *testing.T) {
	src := rng.New(17)
	solvers := []string{"", solver.NameUniform, solver.NameGeneral}
	for trial := 0; trial < 30; trial++ {
		n := 8 + src.Intn(24)
		g := gen.GNP(n, 0.25, src.Split())
		budgets := make([]int, n)
		for v := range budgets {
			budgets[v] = 1 + src.Intn(6)
		}
		s := sched.Replan(g, budgets, 1, nil)
		at := src.Intn(s.Lifetime() + 2)
		used := s.UsagePrefix(n, at)
		for v := range budgets {
			budgets[v] -= used[v]
		}
		var alive []bool
		if trial%3 == 1 {
			alive = make([]bool, n)
			for v := range alive {
				alive[v] = src.Float64() > 0.15
			}
		}
		inst := instance.New(g, budgets)
		req := Request{
			Old: s, At: at, Alive: alive,
			Delta:   randomValidDelta(g, src),
			Overlap: src.Intn(4),
			Solver:  solvers[trial%len(solvers)],
			Seed:    uint64(trial), Tries: 5,
		}
		want, err := Compute(inst, req)
		if err != nil {
			t.Fatalf("trial %d: Compute: %v", trial, err)
		}
		g2, budgets2, mapping, err := req.Delta.Apply(g, budgets)
		if err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		got, err := ComputeApplied(inst, g2, budgets2, mapping, req)
		if err != nil {
			t.Fatalf("trial %d: ComputeApplied: %v", trial, err)
		}
		if !reflect.DeepEqual(got.Phases, want.Phases) || got.Overlap != want.Overlap ||
			got.OverlapEnergy != want.OverlapEnergy || got.Degraded != want.Degraded ||
			got.Violation != want.Violation || !slices.Equal(got.Mapping, want.Mapping) ||
			!slices.Equal(got.Budgets, want.Budgets) || !slices.Equal(got.Alive, want.Alive) ||
			got.Graph.Fingerprint() != want.Graph.Fingerprint() {
			t.Fatalf("trial %d: ComputeApplied's plan %+v differs from Compute's %+v", trial, got, want)
		}
	}
}

// TestComputeMemoryLinear pins the planner's memory to O(n + m): one
// PATCH-shaped Compute on a sparse 16 384-node ring must allocate a few MB,
// not the n²/64 words (34 MB) a packed coverage row per node costs. Not
// parallel, so the TotalAlloc delta counts this test's allocations alone.
func TestComputeMemoryLinear(t *testing.T) {
	const n, at = 16384, 1
	g := gen.Ring(n)
	budgets := make([]int, n)
	for v := range budgets {
		budgets[v] = 6
	}
	old, err := solver.Solve(instance.New(g, budgets), solver.Spec{Name: solver.NameGreedy}, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	used := old.UsagePrefix(n, at)
	for v := range budgets {
		budgets[v] -= used[v]
	}
	inst := instance.New(g, budgets)
	req := Request{Old: old, At: at, Delta: graph.Delta{RemoveNodes: []int{5}}, Overlap: 2}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Compute(inst, req)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation || p.Lifetime() == 0 {
		t.Fatalf("want a feasible plan, got violation=%v lifetime=%d", p.Violation, p.Lifetime())
	}
	grown := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compute on Ring(%d) allocated %.1f MiB", n, float64(grown)/(1<<20))
	if grown >= 8<<20 {
		t.Fatalf("Compute on Ring(%d) allocated %.1f MiB, want < 8 MiB", n, float64(grown)/(1<<20))
	}
}

// BenchmarkCompute times one PATCH of the service benchmark's patch-churn
// workload: on a unit-disk graph with n = 512 and r = 0.09 under a greedy
// schedule at battery 10, cut over at slot 1 to a graph where one node is
// replaced by a fresh one wired to its former neighbors.
func BenchmarkCompute(b *testing.B) {
	const battery, at = 10, 1
	g, _ := gen.RandomUDG(512, 1, 0.09, rng.New(7))
	n := g.N()
	budgets := make([]int, n)
	for v := range budgets {
		budgets[v] = battery
	}
	old, err := solver.Solve(instance.New(g, budgets), solver.Spec{Name: solver.NameGreedy}, solver.Options{})
	if err != nil {
		b.Fatal(err)
	}
	used := old.UsagePrefix(n, at)
	for v := range budgets {
		budgets[v] -= used[v]
	}
	v := n / 2
	d := graph.Delta{RemoveNodes: []int{v}, AddNodes: 1, NewBudgets: []int{battery}}
	for _, u := range g.Neighbors(v) {
		nu := int(u)
		if nu > v {
			nu-- // survivors renumber compactly
		}
		d.AddEdges = append(d.AddEdges, [2]int{nu, n - 1})
	}
	inst := instance.New(g, budgets)
	req := Request{Old: old, At: at, Delta: d, Overlap: DefaultOverlap}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Compute(inst, req)
		if err != nil {
			b.Fatal(err)
		}
		if p.Violation {
			b.Fatal("plan lost domination")
		}
	}
}
