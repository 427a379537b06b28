package sensim

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestAdversarialPlanBreaksSingleServerPhase(t *testing.T) {
	// P3 schedule {1}×2: node 0's only server is node 1 → budget 1 breaks it.
	g := gen.Path(3)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{1}, Duration: 2}}}
	plan := AdversarialPlan(g, s, 0, 1)
	if len(plan) != 1 || plan[0].Node != 1 {
		t.Fatalf("plan = %v, want kill node 1", plan)
	}
	net := energy.NewNetwork(g, energy.Uniform(g, 5))
	res := Run(net, s, Options{K: 1, Chaos: chaos.Plan{Crashes: plan}})
	if res.FirstViolation != 0 {
		t.Fatalf("violation at %v, want 0", res.FirstViolation)
	}
}

func TestAdversarialPlanRespectsBudget(t *testing.T) {
	// K4 schedule {0,1,2}×1: victim 3 has 3 servers; budget 2 cannot break.
	g := gen.Complete(4)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0, 1, 2}, Duration: 1}}}
	if plan := AdversarialPlan(g, s, 3, 2); plan != nil {
		t.Fatalf("plan = %v, want nil (phase too redundant)", plan)
	}
	if plan := AdversarialPlan(g, s, 3, 3); len(plan) != 3 {
		t.Fatalf("plan = %v, want all 3 servers", plan)
	}
}

func TestAdversarialPlanSkipsLaterRedundantPhases(t *testing.T) {
	// First phase has 2 servers of the victim, second has 1: with budget 1
	// the plan targets the second phase's server.
	g := gen.Complete(4)
	s := &core.Schedule{Phases: []core.Phase{
		{Set: []int{0, 1}, Duration: 1},
		{Set: []int{2}, Duration: 1},
	}}
	plan := AdversarialPlan(g, s, 3, 1)
	if len(plan) != 1 || plan[0].Node != 2 {
		t.Fatalf("plan = %v, want kill node 2", plan)
	}
}

func TestKToleranceTheoremViaAdversary(t *testing.T) {
	// Property behind E10: a k-dominating schedule has no phase with fewer
	// than k servers of any node, so AdversarialPlan with budget k-1 is nil
	// for every victim.
	g := gen.GNP(120, 0.4, rng.New(1))
	const b, k = 4, 3
	s := mustSolve(t, g, uniformVec(g.N(), b), "ft", k, 30, rng.New(2))
	if s.Lifetime() == 0 {
		t.Skip("no schedule materialized")
	}
	for victim := 0; victim < g.N(); victim += 7 {
		if plan := AdversarialPlan(g, s, victim, k-1); plan != nil {
			t.Fatalf("victim %d: budget %d broke a %d-dominating schedule: %v",
				victim, k-1, k, plan)
		}
	}
}

func TestGreedyPartitionFallsToAdversary(t *testing.T) {
	// The complementary property: a lifetime-maximal 1-dominating schedule
	// almost always has a 1-server phase for a minimum-degree victim.
	g := gen.GNP(120, 0.4, rng.New(3))
	p := domatic.GreedyPartition(g, domatic.GreedyExtractor)
	s := core.FromPartition(p, 2)
	victim := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) < g.Degree(victim) {
			victim = v
		}
	}
	plan := AdversarialPlan(g, s, victim, 1)
	if plan == nil {
		t.Skip("this instance happens to double-cover the victim everywhere")
	}
	net := energy.NewNetwork(g, energy.Uniform(g, 2))
	res := Run(net, s, Options{K: 1, Chaos: chaos.Plan{Crashes: plan}})
	if res.FirstViolation == -1 {
		t.Fatal("adversarial kill of the sole server did not break coverage")
	}
}
