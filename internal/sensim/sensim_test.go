package sensim

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/rng"
)

// verify re-checks a claimed coverage trace against first principles: the
// achieved lifetime equals the index of the first sub-1 coverage entry (or
// the trace length). This also holds under the dead-network semantics: the
// slot in which the network dies is recorded as coverage 0, so it is the
// first sub-1 entry, matches FirstViolation, and ends the trace. The tests
// use it as a cross-check on Run's bookkeeping.
func verify(res Result) bool {
	for t, c := range res.Coverage {
		if c < 1 {
			return res.AchievedLifetime == t && res.FirstViolation == t
		}
	}
	return res.AchievedLifetime == len(res.Coverage) && res.FirstViolation == -1
}

func TestRunPerfectSchedule(t *testing.T) {
	// P3, b=2: {1}×2 then {0,2}×2 → achieved lifetime 4, no violation.
	g := gen.Path(3)
	net := energy.NewNetwork(g, energy.Uniform(g, 2))
	s := &core.Schedule{Phases: []core.Phase{
		{Set: []int{1}, Duration: 2},
		{Set: []int{0, 2}, Duration: 2},
	}}
	res := Run(net, s, Options{K: 1})
	if res.AchievedLifetime != 4 {
		t.Fatalf("achieved = %d, want 4", res.AchievedLifetime)
	}
	if res.FirstViolation != -1 {
		t.Fatalf("violation at %d, want none", res.FirstViolation)
	}
	if res.EnergySpent != 6 {
		t.Fatalf("energy = %d, want 6", res.EnergySpent)
	}
	if res.ReportsDelivered != 4*3 {
		t.Fatalf("reports = %d, want 12", res.ReportsDelivered)
	}
	if !verify(res) {
		t.Fatal("result fails self-verification")
	}
}

func TestRunDetectsViolation(t *testing.T) {
	g := gen.Path(3)
	net := energy.NewNetwork(g, energy.Uniform(g, 5))
	s := &core.Schedule{Phases: []core.Phase{
		{Set: []int{1}, Duration: 1},
		{Set: []int{0}, Duration: 1}, // leaves node 2 uncovered
		{Set: []int{1}, Duration: 1},
	}}
	res := Run(net, s, Options{K: 1})
	if res.AchievedLifetime != 1 {
		t.Fatalf("achieved = %d, want 1", res.AchievedLifetime)
	}
	if res.FirstViolation != 1 {
		t.Fatalf("violation at %d, want 1", res.FirstViolation)
	}
	if len(res.Coverage) != 3 {
		t.Fatalf("coverage trace length %d, want 3 (ran to completion)", len(res.Coverage))
	}
	if !verify(res) {
		t.Fatal("result fails self-verification")
	}
}

func TestRunOutOfBudgetNodesStopServing(t *testing.T) {
	// Node 1 has budget 1 but is scheduled for 3 slots: from slot 1 on it
	// cannot serve and coverage collapses.
	g := gen.Path(3)
	net := energy.NewNetwork(g, []int{5, 1, 5})
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{1}, Duration: 3}}}
	res := Run(net, s, Options{K: 1})
	if res.AchievedLifetime != 1 {
		t.Fatalf("achieved = %d, want 1", res.AchievedLifetime)
	}
	if res.EnergySpent != 1 {
		t.Fatalf("energy = %d, want 1", res.EnergySpent)
	}
}

func TestRunWithFailures(t *testing.T) {
	// K4 with schedule {0}×2; node 0 dies at slot 1 → slot 1 uncovered.
	g := gen.Complete(4)
	net := energy.NewNetwork(g, energy.Uniform(g, 5))
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 2}}}
	res := Run(net, s, Options{
		K:     1,
		Chaos: chaos.Plan{Crashes: energy.FailurePlan{{Time: 1, Node: 0}}},
	})
	if res.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", res.Deaths)
	}
	if res.AchievedLifetime != 1 || res.FirstViolation != 1 {
		t.Fatalf("achieved %d violation %d, want 1 and 1", res.AchievedLifetime, res.FirstViolation)
	}
}

func TestRunKTolerantSurvivesFailure(t *testing.T) {
	// K4 with a 2-dominating schedule {0,1}×2; node 0 dies at slot 1.
	// Coverage at k=1 still holds via node 1.
	g := gen.Complete(4)
	net := energy.NewNetwork(g, energy.Uniform(g, 5))
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0, 1}, Duration: 2}}}
	res := Run(net, s, Options{
		K:     1,
		Chaos: chaos.Plan{Crashes: energy.FailurePlan{{Time: 1, Node: 0}}},
	})
	if res.FirstViolation != -1 {
		t.Fatalf("violation at %d, want none (redundancy should absorb the death)", res.FirstViolation)
	}
	if res.AchievedLifetime != 2 {
		t.Fatalf("achieved = %d, want 2", res.AchievedLifetime)
	}
}

func TestRunDeadNodesNeedNoCoverage(t *testing.T) {
	// P3: node 2 dies at slot 0; {0} then dominates the alive subgraph
	// {0, 1}.
	g := gen.Path(3)
	net := energy.NewNetwork(g, energy.Uniform(g, 5))
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 1}}}
	res := Run(net, s, Options{
		K:     1,
		Chaos: chaos.Plan{Crashes: energy.FailurePlan{{Time: 0, Node: 2}}},
	})
	if res.FirstViolation != -1 {
		t.Fatalf("violation at %d, want none", res.FirstViolation)
	}
}

func TestRunKDominationRequirement(t *testing.T) {
	g := gen.Complete(4)
	net := energy.NewNetwork(g, energy.Uniform(g, 5))
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 1}}}
	res := Run(net, s, Options{K: 2})
	if res.FirstViolation != 0 {
		t.Fatal("single server cannot 2-dominate; expected immediate violation")
	}
}

func TestNaiveAllOn(t *testing.T) {
	s := NaiveAllOn(3, 2)
	if s.Lifetime() != 2 {
		t.Fatalf("lifetime = %d, want 2", s.Lifetime())
	}
	g := gen.Path(3)
	net := energy.NewNetwork(g, energy.Uniform(g, 2))
	res := Run(net, s, Options{K: 1})
	if res.AchievedLifetime != 2 || res.FirstViolation != -1 {
		t.Fatalf("naive run: %+v", res)
	}
	if s := NaiveAllOn(0, 5); s.Lifetime() != 0 {
		t.Fatal("empty naive schedule should have lifetime 0")
	}
}

func TestEndToEndUniformAlgorithmExecution(t *testing.T) {
	// The full pipeline: Algorithm 1 schedule executed on the energy model
	// achieves exactly its nominal lifetime.
	g := gen.GNP(150, 0.3, rng.New(1))
	const b = 3
	s := mustSolve(t, g, energy.Uniform(g, b), "uniform", 1, 50, rng.New(2))
	net := energy.NewNetwork(g, energy.Uniform(g, b))
	res := Run(net, s, Options{K: 1})
	if res.AchievedLifetime != s.Lifetime() {
		t.Fatalf("achieved %d != nominal %d", res.AchievedLifetime, s.Lifetime())
	}
	if res.FirstViolation != -1 {
		t.Fatalf("violation at %d", res.FirstViolation)
	}
}

func TestAchievedNeverExceedsResidualHorizon(t *testing.T) {
	// Property: achieved lifetime ≤ the Lemma 5.1 bound of the fresh
	// network, min over u of the budget in N+[u].
	src := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		g := gen.GNP(40, 0.2, src)
		b := make([]int, g.N())
		for i := range b {
			b[i] = 1 + src.Intn(4)
		}
		net := energy.NewNetwork(g, b)
		horizon := core.GeneralUpperBound(g, b)
		s := mustSolve(t, g, b, "general", 1, 10, rng.New(uint64(100+trial)))
		res := Run(net, s, Options{K: 1})
		if res.AchievedLifetime > horizon {
			t.Fatalf("trial %d: achieved %d > horizon %d", trial, res.AchievedLifetime, horizon)
		}
	}
}
