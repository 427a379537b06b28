package sensim

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gen"
)

// allOn returns the naive everyone-active schedule over n nodes for b slots.
func allOn(n, b int) *core.Schedule { return NaiveAllOn(n, b) }

func TestRunFailureAtSlotZero(t *testing.T) {
	// A crash at time 0 applies before the first slot's coverage check:
	// killing a path endpoint's only potential dominators at slot 0 must
	// yield FirstViolation == 0 and AchievedLifetime == 0.
	g := gen.Path(3)
	net := energy.NewNetwork(g, energy.Uniform(g, 2))
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{1}, Duration: 2}}}
	plan := energy.FailurePlan{{Time: 0, Node: 1}}
	res := Run(net, s, Options{K: 1, Chaos: chaos.Plan{Crashes: plan}})
	if res.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", res.Deaths)
	}
	if res.FirstViolation != 0 {
		t.Fatalf("FirstViolation = %d, want 0", res.FirstViolation)
	}
	if res.AchievedLifetime != 0 {
		t.Fatalf("AchievedLifetime = %d, want 0", res.AchievedLifetime)
	}
	if !verify(res) {
		t.Fatal("result fails verify")
	}
}

func TestRunWholeNetworkCrashPlan(t *testing.T) {
	// A plan crashing every node mid-run is a terminal coverage violation:
	// the death slot is recorded with coverage 0, FirstViolation points at
	// it, the lifetime stops accruing, and the run ends (crashed nodes never
	// revive, so executing further slots would only repeat the violation).
	g := gen.Complete(6)
	net := energy.NewNetwork(g, energy.Uniform(g, 4))
	s := allOn(6, 4)
	var plan energy.FailurePlan
	for v := 0; v < 6; v++ {
		plan = append(plan, energy.Failure{Time: 1, Node: v})
	}
	res := Run(net, s, Options{K: 1, Chaos: chaos.Plan{Crashes: plan}})
	if res.Deaths != 6 {
		t.Fatalf("deaths = %d, want 6", res.Deaths)
	}
	if len(res.Coverage) != 2 {
		t.Fatalf("executed %d slots, want 2 (run must stop at the death slot)", len(res.Coverage))
	}
	if res.Coverage[1] != 0 {
		t.Fatalf("death slot coverage = %v, want 0", res.Coverage[1])
	}
	if res.FirstViolation != 1 {
		t.Fatalf("FirstViolation = %d, want 1 (the slot the network died)", res.FirstViolation)
	}
	if res.AchievedLifetime != 1 {
		t.Fatalf("AchievedLifetime = %d, want 1 (only slot 0 was covered)", res.AchievedLifetime)
	}
	if !verify(res) {
		t.Fatal("result fails verify")
	}
}

func TestRunChaosKillsAllNodesMidSchedule(t *testing.T) {
	// The PR 2 regression: a chaos plan that kills every node mid-schedule
	// must be reported as a violation at the death slot — not as a
	// "vacuously covered" run whose lifetime keeps growing.
	g := gen.Complete(5)
	net := energy.NewNetwork(g, energy.Uniform(g, 6))
	s := allOn(5, 6)
	var crashes energy.FailurePlan
	for v := 0; v < 5; v++ {
		crashes = append(crashes, energy.Failure{Time: 3, Node: v})
	}
	plan := chaos.Plan{Crashes: crashes}
	res := Run(net, s, Options{K: 1, Chaos: plan})
	if res.Deaths != 5 {
		t.Fatalf("deaths = %d, want 5", res.Deaths)
	}
	if res.FirstViolation != 3 {
		t.Fatalf("FirstViolation = %d, want 3 (the death slot)", res.FirstViolation)
	}
	if res.AchievedLifetime != 3 {
		t.Fatalf("AchievedLifetime = %d, want 3 — lifetime must stop accruing at network death", res.AchievedLifetime)
	}
	if len(res.Coverage) != 4 || res.Coverage[3] != 0 {
		t.Fatalf("coverage trace %v, want 4 entries ending in 0", res.Coverage)
	}
	if !verify(res) {
		t.Fatal("result fails verify")
	}
}

func TestRunKLargerThanAnyNeighborhood(t *testing.T) {
	// K = 5 on a path (max closed neighborhood 3): coverage is impossible
	// from slot 0. Run must terminate, set FirstViolation = 0, and achieve
	// lifetime 0 — not panic or loop.
	g := gen.Path(4)
	net := energy.NewNetwork(g, energy.Uniform(g, 3))
	s := allOn(4, 3)
	res := Run(net, s, Options{K: 5})
	if res.FirstViolation != 0 {
		t.Fatalf("FirstViolation = %d, want 0", res.FirstViolation)
	}
	if res.AchievedLifetime != 0 {
		t.Fatalf("AchievedLifetime = %d, want 0", res.AchievedLifetime)
	}
	if len(res.Coverage) != 3 {
		t.Fatalf("executed %d slots, want full 3", len(res.Coverage))
	}
}

func TestRunChaosInjector(t *testing.T) {
	// The chaos injector path: a crash and a battery leak delivered through
	// Options.Chaos both land at the start of their slots.
	g := gen.Path(3)
	net := energy.NewNetwork(g, energy.Uniform(g, 4))
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{1}, Duration: 4}}}
	plan := chaos.Merge(
		chaos.Plan{Crashes: energy.FailurePlan{{Time: 2, Node: 0}}},
		chaos.Plan{Leaks: []chaos.Leak{{Time: 1, Node: 1, Amount: 2}}},
	)
	res := Run(net, s, Options{K: 1, Chaos: plan})
	if res.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1 (injector crash)", res.Deaths)
	}
	// Node 1 starts with 4, serves slot 0 (3 left), leaks 2 at slot 1
	// (1 left), serves slot 1 (0 left), cannot serve slots 2-3.
	if res.FirstViolation != 2 {
		t.Fatalf("FirstViolation = %d, want 2 (leak drained the server)", res.FirstViolation)
	}
	if res.AchievedLifetime != 2 {
		t.Fatalf("AchievedLifetime = %d, want 2", res.AchievedLifetime)
	}
}
