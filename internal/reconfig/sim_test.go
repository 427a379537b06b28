package reconfig

import (
	"math"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

func TestSimulateQuietRunMatchesSchedule(t *testing.T) {
	g := graph.NewFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	budgets := []int{5, 5, 5}
	s := sched.Replan(g, budgets, 1, nil)
	res, err := Simulate(g, s, budgets, nil, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := s.Lifetime()
	if res.AchievedLifetime != want || res.CoveredSlots != want || res.FirstViolation != -1 {
		t.Fatalf("quiet run: %+v, want achieved=covered=%d, no violation", res, want)
	}
	usage := s.Usage(3)
	spent := 0
	for _, u := range usage {
		spent += u
	}
	if res.EnergySpent != spent {
		t.Fatalf("energy spent %d, want %d", res.EnergySpent, spent)
	}
	if res.Reconfigs != 0 || res.WakeMisses != 0 || res.OverlapEnergy != 0 {
		t.Fatalf("quiet run recorded reconfig activity: %+v", res)
	}
	if len(res.Coverage) != res.Slots {
		t.Fatalf("%d coverage entries for %d slots", len(res.Coverage), res.Slots)
	}
	for slot, c := range res.Coverage {
		if c != 1 {
			t.Fatalf("slot %d coverage %v, want 1", slot, c)
		}
	}
}

func TestSimulateAppliesChangesAndChaos(t *testing.T) {
	g := gen.GNP(20, 0.3, rng.New(9))
	budgets := make([]int, 20)
	for v := range budgets {
		budgets[v] = 6
	}
	s := sched.Replan(g, budgets, 1, nil)
	events := []Change{
		{At: 2, Delta: randomValidDelta(g, rng.New(1))},
	}
	mem := &obs.Memory{}
	res, err := Simulate(g, s, budgets, events, SimOptions{
		Overlap: 2,
		Chaos: chaos.Plan{
			Crashes: energy.FailurePlan{{Time: 1, Node: 3}},
			Leaks:   []chaos.Leak{{Time: 3, Node: 5, Amount: 2}},
		},
		Hooks: obs.Hooks{Trace: mem},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want 1", res.Reconfigs)
	}
	if res.Deaths != 1 || mem.Count(obs.EvCrash) != 1 {
		t.Fatalf("deaths = %d, crash events = %d, want 1 each", res.Deaths, mem.Count(obs.EvCrash))
	}
	if mem.Count(obs.EvLeak) != 1 || mem.Count(obs.EvReconfig) != 1 {
		t.Fatalf("leak events = %d, reconfig events = %d, want 1 each",
			mem.Count(obs.EvLeak), mem.Count(obs.EvReconfig))
	}
	if res.Slots == 0 || res.CoveredSlots == 0 {
		t.Fatalf("nothing simulated: %+v", res)
	}
}

func TestSimulateChaosOnRemovedNodeDropped(t *testing.T) {
	// The delta removes node 3 (the highest ID is n-1 = 3); a later crash of
	// original node 3 must be dropped, not mis-target its replacement.
	g := graph.NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	budgets := []int{6, 6, 6, 6}
	s := sched.Replan(g, budgets, 1, nil)
	events := []Change{{At: 1, Delta: graph.Delta{
		RemoveNodes: []int{3},
		AddNodes:    1,
		NewBudgets:  []int{6},
		AddEdges:    [][2]int{{0, 3}, {2, 3}},
	}}}
	res, err := Simulate(g, s, budgets, events, SimOptions{
		Chaos: chaos.Plan{Crashes: energy.FailurePlan{{Time: 4, Node: 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 0 {
		t.Fatalf("crash of a removed original node must be dropped, got %d deaths", res.Deaths)
	}
}

func TestSimulateValidation(t *testing.T) {
	g := graph.NewFromEdges(2, [][2]int{{0, 1}})
	s := sched.Replan(g, []int{2, 2}, 1, nil)
	if _, err := Simulate(nil, s, nil, nil, SimOptions{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Simulate(g, nil, []int{2, 2}, nil, SimOptions{}); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := Simulate(g, s, []int{2}, nil, SimOptions{}); err == nil {
		t.Error("short budgets accepted")
	}
	if _, err := Simulate(g, s, []int{2, 2}, nil, SimOptions{WakeLoss: 1.5}); err == nil {
		t.Error("wake loss 1.5 accepted")
	}
	if _, err := Simulate(g, s, []int{2, 2}, nil, SimOptions{WakeLoss: -0.1}); err == nil {
		t.Error("negative wake loss accepted")
	}
}

// TestSimulatePlannedBeatsNaive is the E24 claim at test scale: under
// identical seeded churn and wake loss, overlap-planned reconfiguration
// achieves at least the lifetime (slots until first lost slot) of naive
// re-solve-and-swap in every scenario, and strictly more in aggregate —
// naive installs lose their first slots to wake misses, while the overlap
// window keeps the outgoing dominators awake across exactly those slots.
func TestSimulatePlannedBeatsNaive(t *testing.T) {
	plannedTotal, naiveTotal := 0, 0
	for seed := uint64(1); seed <= 5; seed++ {
		src := rng.New(seed * 101)
		g := gen.GNP(40, 0.15, src)
		budgets := make([]int, 40)
		for v := range budgets {
			budgets[v] = 14
		}
		s := sched.Replan(g, budgets, 1, nil)
		// Changes are generated against the evolving ID space, but
		// randomValidDelta only needs N, which every change preserves.
		esrc := rng.New(seed * 777)
		events := []Change{
			{At: 3, Delta: randomValidDelta(g, esrc)},
			{At: 6, Delta: randomValidDelta(g, esrc)},
			{At: 9, Delta: randomValidDelta(g, esrc)},
		}
		plan := chaos.Plan{Crashes: energy.FailurePlan{
			{Time: 4, Node: int(seed) % 40},
			{Time: 8, Node: int(seed*13) % 40},
		}}
		run := func(overlap int) SimResult {
			res, err := Simulate(g, s, budgets, events, SimOptions{
				Overlap:  overlap,
				Seed:     seed,
				WakeLoss: 0.6,
				Chaos:    plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		planned := run(2)
		naive := run(0)
		if planned.Reconfigs != 3 || naive.Reconfigs != 3 {
			t.Fatalf("seed %d: reconfigs planned=%d naive=%d, want 3", seed, planned.Reconfigs, naive.Reconfigs)
		}
		if naive.OverlapEnergy != 0 {
			t.Fatalf("seed %d: naive arm charged overlap energy %d", seed, naive.OverlapEnergy)
		}
		if planned.AchievedLifetime < naive.AchievedLifetime {
			t.Errorf("seed %d: planned lifetime %d < naive %d", seed, planned.AchievedLifetime, naive.AchievedLifetime)
		}
		plannedTotal += planned.AchievedLifetime
		naiveTotal += naive.AchievedLifetime
	}
	if plannedTotal <= naiveTotal {
		t.Fatalf("aggregate achieved lifetime: planned %d <= naive %d", plannedTotal, naiveTotal)
	}
}

func TestSimulateDeadNetworkNotCovered(t *testing.T) {
	// Regression: once every node was dead, covered == na held vacuously
	// (0 == 0), so CoveredSlots and AchievedLifetime kept growing for the
	// rest of the schedule. A dead non-empty network must score as a
	// violation.
	g := gen.Complete(3)
	budgets := []int{5, 5, 5}
	s := sched.Replan(g, budgets, 1, nil)
	res, err := Simulate(g, s, budgets, nil, SimOptions{
		Chaos: chaos.Plan{Crashes: energy.FailurePlan{
			{Time: 2, Node: 0}, {Time: 2, Node: 1}, {Time: 2, Node: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 3 {
		t.Fatalf("deaths = %d, want 3", res.Deaths)
	}
	if res.AchievedLifetime != 2 {
		t.Fatalf("AchievedLifetime = %d, want 2 (slots before the wipeout)", res.AchievedLifetime)
	}
	if res.FirstViolation != 2 {
		t.Fatalf("FirstViolation = %d, want 2", res.FirstViolation)
	}
	if res.CoveredSlots != 2 {
		t.Fatalf("CoveredSlots = %d, want 2 — dead slots must not count as covered", res.CoveredSlots)
	}
	if len(res.Coverage) != res.Slots || res.Slots <= 2 {
		t.Fatalf("%d coverage entries for %d slots, want one per slot past the wipeout", len(res.Coverage), res.Slots)
	}
	for slot, c := range res.Coverage {
		want := 1.0
		if slot >= 2 {
			want = 0
		}
		if c != want {
			t.Fatalf("slot %d coverage %v, want %v (the network dies at slot 2)", slot, c, want)
		}
	}
}

func TestSimulateDeadNodesSkipWakeDraws(t *testing.T) {
	// Regression: the informed/wake-loss check ran before the alive check,
	// so a dead scheduled node consumed a wake-loss RNG draw and could count
	// a WakeMiss. Path 0-1-2: the install at t=1 leaves nodes 0 and 2 asleep
	// (uninformed); both crash at t=2, before their phase starts. When their
	// phase arrives they are dead — no draw, no WakeMiss, whatever the seed.
	g := gen.Path(3)
	budgets := []int{6, 6, 6}
	s := sched.Replan(g, budgets, 1, nil)
	events := []Change{{At: 1, Delta: graph.Delta{}}}
	res, err := Simulate(g, s, budgets, events, SimOptions{
		WakeLoss: 0.9,
		Seed:     7,
		Chaos: chaos.Plan{Crashes: energy.FailurePlan{
			{Time: 2, Node: 0}, {Time: 2, Node: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigs != 1 || res.Deaths != 2 {
		t.Fatalf("reconfigs = %d, deaths = %d, want 1 and 2", res.Reconfigs, res.Deaths)
	}
	if res.WakeMisses != 0 {
		t.Fatalf("WakeMisses = %d, want 0 — only dead nodes were ever uninformed at their slot", res.WakeMisses)
	}
	// Control arm: with nobody crashing, the same uninformed nodes do reach
	// their slots and the wake-loss model must fire — proving the arm above
	// exercises the informed path rather than passing vacuously.
	ctl, err := Simulate(g, s, budgets, events, SimOptions{WakeLoss: 0.9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.WakeMisses == 0 {
		t.Fatal("control arm recorded no wake misses — the regression test is vacuous")
	}
}

func TestSimulateEmptyGraphCovered(t *testing.T) {
	// Regression: on a 0-node graph Simulate counted every slot as covered
	// but recorded coverage 0 for it, where sensim and heal record 1. The
	// slot meter scores all four runtimes with one rule.
	g := graph.NewFromEdges(0, nil)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{}, Duration: 2}}}
	res, err := Simulate(g, s, nil, nil, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Coverage, []float64{1, 1}) {
		t.Fatalf("coverage = %v, want [1 1]", res.Coverage)
	}
	if res.CoveredSlots != 2 || res.AchievedLifetime != 2 || res.FirstViolation != -1 {
		t.Fatalf("covered %d, achieved %d, first violation %d; want 2, 2, -1",
			res.CoveredSlots, res.AchievedLifetime, res.FirstViolation)
	}
}

// BenchmarkSimulate times one run shaped like experiment E24: a GNP network
// with n = 512 and p = 6 ln n / n under a greedy schedule at battery 20,
// three node replacements at the nominal schedule's quarter points, 20
// random crashes, overlap 2 and wake loss 0.5. As in E24, a change fires
// only while a schedule still runs, and only the first one does: its fresh
// node, wired to three survivors, caps the incoming schedule at the
// residual budget of its closed neighborhood, which runs out before the
// second quarter point.
func BenchmarkSimulate(b *testing.B) {
	const n, battery = 512, 20
	src := rng.New(24)
	g := gen.GNP(n, 6*math.Log(n)/n, src.Split())
	budgets := energy.Uniform(g, battery)
	s := sched.Replan(g, budgets, 1, nil)
	horizon := s.Lifetime()
	var events []Change
	for q := 1; q <= 3; q++ {
		// Replace the last node by a fresh one wired to three survivors.
		perm := src.Perm(n - 1)
		events = append(events, Change{At: q * horizon / 4, Delta: graph.Delta{
			RemoveNodes: []int{n - 1},
			AddNodes:    1,
			NewBudgets:  []int{battery},
			AddEdges:    [][2]int{{perm[0], n - 1}, {perm[1], n - 1}, {perm[2], n - 1}},
			SetBudgets:  []graph.BudgetUpdate{{Node: perm[3], Budget: battery}},
		}})
	}
	opt := SimOptions{K: 1, Overlap: 2, Seed: 24, WakeLoss: 0.5, Chaos: chaos.Crashes(g, 20, horizon, src.Split())}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(g, s, budgets, events, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Reconfigs == 0 {
			b.Fatal("no change applied")
		}
	}
}
