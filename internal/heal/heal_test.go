package heal

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sensim"
	"repro/internal/solver"
)

// mustSolve runs the registry WHP driver — the path that replaced the
// deleted core.*WHP shims, seed-pinned equivalent to them draw for draw.
func mustSolve(t testing.TB, g *graph.Graph, budgets []int, name string, tries int, src *rng.Source) *core.Schedule {
	t.Helper()
	s, err := solver.Solve(instance.New(g, budgets), solver.Spec{Name: name},
		solver.Options{Tries: tries, Src: src})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustRun is Run for plans whose radio the patch protocol accepts.
func mustRun(t *testing.T, net *energy.Network, s *core.Schedule, opt Options) Result {
	t.Helper()
	res, err := Run(net, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// blackoutRadio drops every delivery — the deterministic worst radio, used
// to force the patch rung to fail so escalation must fire.
type blackoutRadio struct{}

func (blackoutRadio) Drop(from, to, round int) bool { return true }

func TestPatchRecruitsHighestResidualNeighbor(t *testing.T) {
	// Square s-a, s-b, a-u, b-u: s serves and covers s, a, b; u is the only
	// hole. Both a (residual 5) and b (residual 2) bid; u must enlist a.
	const s, a, b, u = 0, 1, 2, 3
	g := graph.NewFromEdges(4, [][2]int{{s, a}, {s, b}, {a, u}, {b, u}})
	net := energy.NewNetwork(g, []int{1, 5, 2, 0})
	recruited, stats, err := runPatch(g, net, []int{s}, []int{u}, 1, 1, nil, obs.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recruited) != 1 || recruited[0] != a {
		t.Fatalf("recruited %v, want [%d] (the highest-residual bidder)", recruited, a)
	}
	if stats.Rounds == 0 || stats.Messages == 0 {
		t.Fatalf("patch ran as a free lunch: %+v — it must cost real protocol rounds and messages", stats)
	}
}

func TestHealCoversCrashOfSoleServer(t *testing.T) {
	// K4, node 0 serves alone; it crashes at slot 2. The patch protocol
	// must enlist replacements and keep every slot covered.
	g := gen.Complete(4)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 4}}}
	net := energy.NewNetwork(g, energy.Uniform(g, 4))
	plan := chaos.Plan{Crashes: energy.FailurePlan{{Time: 2, Node: 0}}}
	res := mustRun(t, net, s, Options{K: 1, Chaos: plan})
	if res.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", res.Deaths)
	}
	if res.FirstViolation != -1 {
		t.Fatalf("FirstViolation = %d, want -1 (patching must close the hole)", res.FirstViolation)
	}
	if res.PatchSuccesses == 0 || res.Recruited == 0 {
		t.Fatalf("no patch recorded: %+v", res)
	}
	if res.AchievedLifetime < s.Lifetime() {
		t.Fatalf("achieved %d < nominal %d despite healing", res.AchievedLifetime, s.Lifetime())
	}
}

// TestRejectsInvalidPatchRadio: a plan whose radio the patch protocol
// rejects — chaos.FlatLoss(1.0), a loss rate outside [0, 1) that only code
// can build — must fail the run before the first slot. It used to skip the
// patch rung silently: on this K4 run, 2 patch attempts that sent no
// message, a degraded slot and lifetime 2, with no error anywhere.
func TestRejectsInvalidPatchRadio(t *testing.T) {
	g := gen.Complete(4)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 4}}}
	net := energy.NewNetwork(g, energy.Uniform(g, 4))
	plan := chaos.Merge(
		chaos.Plan{Crashes: energy.FailurePlan{{Time: 2, Node: 0}}},
		chaos.FlatLoss(1.0, rng.New(1)),
	)
	res, err := Run(net, s, Options{K: 1, Chaos: plan})
	if err == nil || !strings.Contains(err.Error(), "loss probability 1 out of [0, 1)") {
		t.Fatalf("error = %v, want the rejected loss rate", err)
	}
	if len(res.Coverage) != 0 || res.PatchAttempts != 0 {
		t.Fatalf("rejected plan still ran %d slots and %d patch attempts", len(res.Coverage), res.PatchAttempts)
	}
}

func TestPatchRetriesUnderLossyRadio(t *testing.T) {
	// A hole under a very lossy flat radio: the first attempts lose
	// messages, the exponential-backoff rebroadcasts push them through.
	g := gen.Complete(5)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 4}}}
	net := energy.NewNetwork(g, energy.Uniform(g, 5))
	plan := chaos.Merge(
		chaos.Plan{Crashes: energy.FailurePlan{{Time: 1, Node: 0}}},
		chaos.FlatLoss(0.7, rng.New(12)),
	)
	res := mustRun(t, net, s, Options{K: 1, Chaos: plan})
	if res.Protocol.Dropped == 0 {
		t.Fatal("lossy radio dropped nothing — the patch protocol did not run under it")
	}
	if res.Protocol.Messages == 0 || res.PatchAttempts == 0 {
		t.Fatalf("patching left no protocol trace: %+v", res)
	}
	if res.FirstViolation != -1 {
		t.Fatalf("FirstViolation = %d; healing failed under loss: %+v", res.FirstViolation, res)
	}
}

func TestEscalatesToCentralReplan(t *testing.T) {
	// Path 0-1-2, node 1 serves. A battery leak empties node 1 at slot 2
	// while the radio blacks out every patch message; nodes 0 and 2 still
	// self-recruit (local decisions), so the patch holds until the schedule
	// ends. Then the runtime replans over residual budgets, which schedules
	// {0, 2} and keeps the network covered.
	g := gen.Path(3)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{1}, Duration: 4}}}
	net := energy.NewNetwork(g, []int{3, 4, 5})
	plan := chaos.Plan{
		Leaks: []chaos.Leak{{Time: 2, Node: 1, Amount: 99}},
		Radio: blackoutRadio{},
	}
	res := mustRun(t, net, s, Options{K: 1, Chaos: plan})
	if res.Replans == 0 {
		t.Fatalf("no replan escalation recorded: %+v", res)
	}
	if res.FirstViolation != -1 {
		t.Fatalf("FirstViolation = %d, want -1 (replan must restore coverage in-slot)", res.FirstViolation)
	}
	// Slots 0-1 from the schedule, then {0,2} phases from the replan until
	// node 0's or node 2's budget runs dry (3 more slots).
	if res.AchievedLifetime != 5 {
		t.Fatalf("AchievedLifetime = %d, want 5", res.AchievedLifetime)
	}
	if res.DegradedSlots != 0 {
		t.Fatalf("DegradedSlots = %d, want 0", res.DegradedSlots)
	}
}

func TestReplanAfterTwoFailedPatchSlots(t *testing.T) {
	// Edges 0-1, 1-2, 0-3; {2, 3} serves. Node 3 crashes at slot 2, leaving
	// node 0 uncovered. Node 0 has no battery to self-recruit, and the
	// blackout radio keeps its plea from node 1, the idle neighbor that
	// could serve. Each slot spends all three patch attempts; slot 2 runs
	// degraded, and the second failed slot (3) escalates to a replan over
	// residual budgets, which covers node 0 through node 1 in that slot.
	g := graph.NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 3}})
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{2, 3}, Duration: 4}}}
	net := energy.NewNetwork(g, []int{0, 5, 5, 4})
	plan := chaos.Plan{
		Crashes: energy.FailurePlan{{Time: 2, Node: 3}},
		Radio:   blackoutRadio{},
	}
	mem := &obs.Memory{}
	res := mustRun(t, net, s, Options{K: 1, Chaos: plan, Hooks: obs.Hooks{Trace: mem}})
	if res.PatchAttempts != 6 || res.PatchSuccesses != 0 {
		t.Fatalf("patch attempts %d, successes %d; want 3 failed attempts in each of slots 2 and 3",
			res.PatchAttempts, res.PatchSuccesses)
	}
	var replanAt []int
	for _, e := range mem.Events {
		if e.Type == obs.EvReplan {
			replanAt = append(replanAt, e.T)
		}
	}
	if len(replanAt) != 1 || replanAt[0] != 3 || res.Replans != 1 {
		t.Fatalf("replans at slots %v (count %d), want one at slot 3", replanAt, res.Replans)
	}
	if res.DegradedSlots != 1 || res.FirstViolation != 2 {
		t.Fatalf("degraded %d, first violation %d; want slot 2 alone degraded", res.DegradedSlots, res.FirstViolation)
	}
	if len(res.Coverage) < 4 || res.Coverage[3] != 1 {
		t.Fatalf("coverage %v: the replan must cover slot 3", res.Coverage)
	}
}

func TestDegradesGracefully(t *testing.T) {
	// Path 0-1-2: both endpoints crash at slot 1 and the middle node has no
	// battery left to volunteer. No patch, no replan can help; the runtime
	// must keep executing, report the degraded slot, and terminate.
	g := gen.Path(3)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0, 2}, Duration: 2}}}
	net := energy.NewNetwork(g, []int{2, 0, 2})
	plan := chaos.Plan{Crashes: energy.FailurePlan{
		{Time: 1, Node: 0}, {Time: 1, Node: 2},
	}}
	res := mustRun(t, net, s, Options{K: 1, Chaos: plan})
	if res.Deaths != 2 {
		t.Fatalf("deaths = %d, want 2", res.Deaths)
	}
	if res.DegradedSlots == 0 {
		t.Fatal("unfixable hole not reported as degraded")
	}
	if res.FirstViolation != 1 {
		t.Fatalf("FirstViolation = %d, want 1", res.FirstViolation)
	}
	if res.AchievedLifetime != 1 {
		t.Fatalf("AchievedLifetime = %d, want 1", res.AchievedLifetime)
	}
	if res.Replans != 0 && res.FirstViolation == -1 {
		t.Fatalf("replanning cannot succeed here: %+v", res)
	}
	if len(res.Coverage) != 2 {
		t.Fatalf("run aborted early: executed %d slots, want the full 2", len(res.Coverage))
	}
}

func TestRunWithoutChaosMatchesScheduleAndHarvests(t *testing.T) {
	// Fault-free healing run: never below full coverage, and at least the
	// nominal lifetime (end-of-schedule replanning may extend it).
	g := gen.GNP(60, 0.2, rng.New(4))
	const b = 3
	s := mustSolve(t, g, energy.Uniform(g, b), "uniform", 30, rng.New(5))
	if s.Lifetime() == 0 {
		t.Skip("degenerate schedule")
	}
	net := energy.NewNetwork(g, energy.Uniform(g, b))
	res := mustRun(t, net, s, Options{K: 1})
	if res.FirstViolation != -1 {
		t.Fatalf("violation at %d in a fault-free run", res.FirstViolation)
	}
	if res.AchievedLifetime < s.Lifetime() {
		t.Fatalf("achieved %d < nominal %d without any faults", res.AchievedLifetime, s.Lifetime())
	}
}

func TestHealingBeatsStaticAcceptance(t *testing.T) {
	// The PR acceptance criterion: on a 256-node GNP graph under an
	// identical seeded chaos plan with >= 10 injected crashes, running the
	// SAME 1-tolerant schedule, the self-healing runtime achieves strictly
	// greater lifetime than static execution.
	n := 256
	g := gen.GNP(n, 8*math.Log(float64(n))/float64(n), rng.New(42))
	const b = 4
	// The lifetime-maximal 1-tolerant schedule: a greedy domatic partition
	// run class by class. Its phases are minimal dominating sets with zero
	// redundancy — the schedule that E10 shows falls to a single aimed
	// crash, and the one online healing is for.
	s := core.FromPartition(domatic.GreedyPartition(g, domatic.GreedyExtractor), b)
	if s.Lifetime() == 0 {
		t.Fatal("schedule construction failed")
	}
	plan := chaos.Crashes(g, 24, s.Lifetime(), rng.New(99))
	if plan.CrashCount() < 10 {
		t.Fatalf("chaos plan has %d crashes, want >= 10", plan.CrashCount())
	}

	netStatic := energy.NewNetwork(g, energy.Uniform(g, b))
	static := sensim.Run(netStatic, s, sensim.Options{K: 1, Chaos: plan})

	netHeal := energy.NewNetwork(g, energy.Uniform(g, b))
	healed := mustRun(t, netHeal, s, Options{K: 1, Chaos: plan})

	if static.Deaths < 10 || healed.Deaths < 10 {
		t.Fatalf("crashes not applied: static %d, healed %d deaths", static.Deaths, healed.Deaths)
	}
	if healed.AchievedLifetime <= static.AchievedLifetime {
		t.Fatalf("healing did not pay: static %d >= healed %d (healed: %+v)",
			static.AchievedLifetime, healed.AchievedLifetime, healed)
	}
	if healed.PatchAttempts == 0 {
		t.Fatal("healed run never exercised the patch protocol")
	}
	if healed.Protocol.Messages == 0 {
		t.Fatal("patching sent no messages — not a genuine distributed repair")
	}
}

func TestHealDeterministic(t *testing.T) {
	g := gen.GNP(80, 0.15, rng.New(11))
	const b = 3
	run := func() Result {
		s := mustSolve(t, g, energy.Uniform(g, b), "uniform", 20, rng.New(5))
		net := energy.NewNetwork(g, energy.Uniform(g, b))
		plan := chaos.Merge(
			chaos.Crashes(g, 8, 10, rng.New(17)),
			chaos.FlatLoss(0.3, rng.New(23)),
		)
		return mustRun(t, net, s, Options{K: 1, Chaos: plan})
	}
	a, b2 := run(), run()
	if a.AchievedLifetime != b2.AchievedLifetime || a.Protocol != b2.Protocol ||
		a.Recruited != b2.Recruited || a.Replans != b2.Replans {
		t.Fatalf("identical seeded runs diverged:\n%+v\n%+v", a, b2)
	}
}

func TestHealTerminatesUnderTotalLoss(t *testing.T) {
	// Degradation edge: the sole server crashes immediately, the patch radio
	// loses every message, and no survivor has budget to serve —
	// every rung of the ladder fails. Run must terminate with a reported
	// violation instead of panicking or spinning on retries.
	g := gen.Path(2)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 4}}}
	net := energy.NewNetwork(g, []int{4, 0})
	plan := chaos.Plan{Crashes: energy.FailurePlan{{Time: 0, Node: 0}}, Radio: blackoutRadio{}}
	done := make(chan Result, 1)
	go func() {
		res, err := Run(net, s, Options{K: 1, Chaos: plan})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res Result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("heal.Run did not terminate under total loss")
	}
	if res.FirstViolation != 0 {
		t.Fatalf("FirstViolation = %d, want 0 (nothing can cover the survivor)", res.FirstViolation)
	}
	if res.AchievedLifetime != 0 {
		t.Fatalf("AchievedLifetime = %d, want 0", res.AchievedLifetime)
	}
	if res.Recruited != 0 {
		t.Fatalf("recruited %d nodes through a radio that drops everything", res.Recruited)
	}
	if res.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", res.Deaths)
	}
}

func TestHealDeadNetworkIsTerminalViolation(t *testing.T) {
	// Regression: a fully dead network used to score cov = 1.0 (0 of 0
	// alive nodes covered) and keep advancing AchievedLifetime. It must be
	// a terminal coverage violation, matching sensim's semantics.
	g := gen.Complete(3)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 6}}}
	net := energy.NewNetwork(g, energy.Uniform(g, 6))
	plan := chaos.Plan{Crashes: energy.FailurePlan{
		{Time: 2, Node: 0}, {Time: 2, Node: 1}, {Time: 2, Node: 2},
	}}
	res := mustRun(t, net, s, Options{K: 1, Chaos: plan})
	if res.AchievedLifetime != 2 {
		t.Fatalf("AchievedLifetime = %d, want 2 (slots before the wipeout)", res.AchievedLifetime)
	}
	if res.FirstViolation != 2 {
		t.Fatalf("FirstViolation = %d, want 2 (the dead slot)", res.FirstViolation)
	}
	if n := len(res.Coverage); n != 3 {
		t.Fatalf("run continued %d slots past the wipeout, want termination at slot 2 (3 coverage entries)", n-3+2)
	}
	if last := res.Coverage[2]; last != 0 {
		t.Fatalf("dead slot scored coverage %v, want 0", last)
	}
}
