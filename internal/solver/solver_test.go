package solver_test

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/solver"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.GNP(120, 0.25, rng.New(3))
}

func uniformBudgets(n, b int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// inst wraps a graph and budgets in the typed instance every solver call
// consumes now.
func inst(g *graph.Graph, budgets []int) *instance.Instance {
	return instance.New(g, budgets)
}

// legacyWHP replays the retry/truncate/keep-best/early-stop loop the
// deleted core.*WHP shims hard-coded per algorithm, composed from the
// still-exported core primitives.
func legacyWHP(g *graph.Graph, target, truncK, tries int, generate func() *core.Schedule) *core.Schedule {
	sess := domset.NewSession(g)
	var best *core.Schedule
	for try := 0; try < tries; try++ {
		s := generate().TruncateInvalidWith(sess, truncK)
		if best == nil || s.Lifetime() > best.Lifetime() {
			best = s
		}
		if best.Lifetime() >= target {
			break
		}
	}
	return best
}

// TestSolveReproducesLegacyWHP is the seed-pinned equivalence contract of
// the registry refactor: for every paper algorithm, solver.Solve with a
// fresh source must reproduce the exact schedule the legacy per-algorithm
// retry loop computes with an identically seeded source — byte for byte,
// not just same lifetime.
func TestSolveReproducesLegacyWHP(t *testing.T) {
	g := testGraph(t)
	const b, k, tries, seed = 4, 2, 12, 17

	cases := []struct {
		spec    solver.Spec
		k       int
		budgets []int
		legacy  func() *core.Schedule
	}{
		{solver.Spec{Name: solver.NameUniform}, 1, uniformBudgets(g.N(), b), func() *core.Schedule {
			o := core.Options{Src: rng.New(seed)}
			return legacyWHP(g, core.GuaranteedPhases(g, o)*b, 1, tries,
				func() *core.Schedule { return core.Uniform(g, b, o) })
		}},
		{solver.Spec{Name: solver.NameGeneral}, 1, rampBudgets(g.N()), func() *core.Schedule {
			o := core.Options{Src: rng.New(seed)}
			budgets := rampBudgets(g.N())
			return legacyWHP(g, core.GeneralGuaranteedSlots(g, budgets, o), 1, tries,
				func() *core.Schedule { return core.General(g, budgets, o) })
		}},
		{solver.Spec{Name: solver.NameFT}, k, uniformBudgets(g.N(), b), func() *core.Schedule {
			o := core.Options{Src: rng.New(seed)}
			return legacyWHP(g, core.FaultTolerantGuarantee(g, b, k, o), k, tries,
				func() *core.Schedule { return core.FaultTolerant(g, b, k, o) })
		}},
		{solver.Spec{Name: solver.NameGeneralFT}, k, rampBudgets(g.N()), func() *core.Schedule {
			o := core.Options{Src: rng.New(seed)}
			budgets := rampBudgets(g.N())
			return legacyWHP(g, core.GeneralGuaranteedSlots(g, budgets, o)/k, k, tries,
				func() *core.Schedule { return core.GeneralFaultTolerant(g, budgets, k, o) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Name, func(t *testing.T) {
			want := tc.legacy()
			got, err := solver.Solve(inst(g, tc.budgets).WithK(tc.k), tc.spec,
				solver.Options{Tries: tries, Src: rng.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("solver.Solve diverged from legacy loop:\n got lifetime %d (%d phases)\nwant lifetime %d (%d phases)",
					got.Lifetime(), len(got.Phases), want.Lifetime(), len(want.Phases))
			}
			if got.Lifetime() == 0 {
				t.Fatal("fixture produced an empty schedule; equivalence is vacuous")
			}
		})
	}
}

// rampBudgets gives node v battery 2 + v%4: heterogeneous but bounded, the
// shape the general algorithms are for.
func rampBudgets(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 2 + i%4
	}
	return out
}

// TestSolveWidthOneSequential pins the delegation contract: RaceWidth <= 1
// hands the parent source directly to the sequential attempt, so racing is
// a pure superset of the sequential driver.
func TestSolveWidthOneSequential(t *testing.T) {
	g := testGraph(t)
	budgets := uniformBudgets(g.N(), 3)
	spec := solver.Spec{Name: solver.NameUniform}
	in := inst(g, budgets)
	want, err := solver.Solve(in, spec, solver.Options{Tries: 8, Src: rng.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{0, 1} {
		got, err := solver.Solve(in, spec,
			solver.Options{Tries: 8, Src: rng.New(5), RaceWidth: width})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Solve(RaceWidth=%d) != sequential: lifetime %d vs %d", width, got.Lifetime(), want.Lifetime())
		}
	}
}

// TestRaceDeterministic pins the racing contract: the winner is a pure
// function of the seed and width — concurrency must not leak into the
// result. Each width is run repeatedly and compared byte for byte.
func TestRaceDeterministic(t *testing.T) {
	g := testGraph(t)
	budgets := rampBudgets(g.N())
	spec := solver.Spec{Name: solver.NameGeneral}
	in := inst(g, budgets)
	for _, width := range []int{2, 4, 7} {
		var want *core.Schedule
		for rep := 0; rep < 3; rep++ {
			got, err := solver.Solve(in, spec,
				solver.Options{Tries: 4, Src: rng.New(29), RaceWidth: width})
			if err != nil {
				t.Fatal(err)
			}
			if rep == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width %d rep %d diverged: lifetime %d vs %d",
					width, rep, got.Lifetime(), want.Lifetime())
			}
		}
		if want.Lifetime() == 0 {
			t.Fatalf("width %d produced an empty schedule", width)
		}
	}
}

// TestRaceBeatsOrMatchesBest: the race winner can never be worse than any
// single attempt with the same per-child try budget — in particular it is at
// least as good as the first child alone.
func TestRaceBeatsOrMatchesBest(t *testing.T) {
	g := testGraph(t)
	budgets := rampBudgets(g.N())
	spec := solver.Spec{Name: solver.NameGeneral}
	in := inst(g, budgets)
	children := rng.New(29).SplitN(4)
	first, err := solver.Solve(in, spec, solver.Options{Tries: 4, Src: children[0]})
	if err != nil {
		t.Fatal(err)
	}
	raced, err := solver.Solve(in, spec,
		solver.Options{Tries: 4, Src: rng.New(29), RaceWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if raced.Lifetime() < first.Lifetime() {
		t.Fatalf("race winner (lifetime %d) worse than its own first attempt (%d)",
			raced.Lifetime(), first.Lifetime())
	}
}

// TestBestCanceled pins the serve cancellation contract end to end: a fired
// cancel func surfaces as ErrCanceled (serve's writeJobError matches on it).
func TestBestCanceled(t *testing.T) {
	g := testGraph(t)
	budgets := uniformBudgets(g.N(), 3)
	_, err := solver.Solve(inst(g, budgets), solver.Spec{Name: solver.NameUniform},
		solver.Options{Tries: 5, Cancel: func() bool { return true }, Src: rng.New(1)})
	if !errors.Is(err, solver.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestRaceCanceled fires cancel after the first few attempts are underway:
// the race must report ErrCanceled rather than a partial winner.
func TestRaceCanceled(t *testing.T) {
	g := testGraph(t)
	budgets := uniformBudgets(g.N(), 3)
	var calls atomic.Int64
	cancel := func() bool { return calls.Add(1) > 2 }
	_, err := solver.Solve(inst(g, budgets), solver.Spec{Name: solver.NameUniform},
		solver.Options{Tries: 50, Cancel: cancel, Src: rng.New(1), RaceWidth: 4})
	if !errors.Is(err, solver.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestDeadlinePoll pins the clock-free poll behind Options.Deadline and the
// serve job's cancel: a passed deadline fires on the first poll, a future one
// never fires early and does fire once its timer runs, a fired poll stays
// fired, and stop releases the timer, so a stopped poll never fires.
func TestDeadlinePoll(t *testing.T) {
	// firesWithin polls until poll fires or limit passes.
	firesWithin := func(poll func() bool, limit time.Duration) bool {
		end := time.Now().Add(limit)
		for !poll() {
			if time.Now().After(end) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}

	poll, stop := solver.DeadlinePoll(time.Now().Add(-time.Second))
	if !poll() {
		t.Error("a past deadline did not fire on the first poll")
	}
	stop()

	deadline := time.Now().Add(20 * time.Millisecond)
	poll, stop = solver.DeadlinePoll(deadline)
	defer stop()
	if poll() && time.Now().Before(deadline) {
		t.Error("a 20 ms deadline fired at once")
	}
	if !firesWithin(poll, time.Second) {
		t.Fatal("a 20 ms deadline did not fire within 1 s")
	}
	for i := 0; i < 3; i++ {
		if !poll() {
			t.Fatal("a fired poll reported false again")
		}
	}

	stopped, stopEarly := solver.DeadlinePoll(time.Now().Add(20 * time.Millisecond))
	stopEarly()
	later, stopLater := solver.DeadlinePoll(time.Now().Add(40 * time.Millisecond))
	defer stopLater()
	if !firesWithin(later, time.Second) {
		t.Fatal("a 40 ms deadline did not fire within 1 s")
	}
	if stopped() {
		t.Error("a poll stopped before its deadline fired")
	}
}

// TestBestEmitsAttemptEvents checks the obs contract: one EvAttempt per try,
// with the best-so-far monotone nondecreasing and the final best equal to
// the returned schedule's lifetime.
func TestBestEmitsAttemptEvents(t *testing.T) {
	g := testGraph(t)
	budgets := rampBudgets(g.N())
	var mem obs.Memory
	s, err := solver.Solve(inst(g, budgets), solver.Spec{Name: solver.NameGeneral},
		solver.Options{Tries: 6, Src: rng.New(11), Hooks: obs.Hooks{Trace: &mem}})
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Events) == 0 {
		t.Fatal("no attempt events emitted")
	}
	best := -1
	for i, ev := range mem.Events {
		if ev.Type != obs.EvAttempt {
			t.Fatalf("event %d: unexpected type %v", i, ev.Type)
		}
		if ev.T != i {
			t.Fatalf("event %d: try index %d", i, ev.T)
		}
		if ev.B < best {
			t.Fatalf("best-so-far decreased: %d after %d", ev.B, best)
		}
		best = ev.B
	}
	if best != s.Lifetime() {
		t.Fatalf("final best event says %d, schedule lifetime is %d", best, s.Lifetime())
	}
}

// TestRegistryNames pins the registry contents and Resolve's error shape.
func TestRegistryNames(t *testing.T) {
	want := []string{"anneal", "auto", "exact", "ft", "general", "generalft", "greedy", "grid", "lp", "prune", "tabu", "uniform"}
	got := solver.Names()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Names() not sorted: %v", got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	if _, err := solver.Resolve("frob"); err == nil {
		t.Fatal("unknown name resolved")
	}
	for _, name := range got {
		if sv, ok := solver.Get(name); !ok || sv.Name() != name {
			t.Fatalf("Get(%q) = %v, %v", name, sv, ok)
		}
	}
}

// TestValidateRejections spot-checks the shape errors Validate centralizes
// (they were scattered across serve/request.go and the cmds before): Solve
// and Guaranteed must both refuse each spec.
func TestValidateRejections(t *testing.T) {
	g := testGraph(t)
	cases := []struct {
		name string
		spec solver.Spec
		in   *instance.Instance
	}{
		{"uniform needs uniform batteries", solver.Spec{Name: solver.NameUniform}, inst(g, rampBudgets(g.N()))},
		{"uniform rejects tolerance", solver.Spec{Name: solver.NameUniform}, inst(g, uniformBudgets(g.N(), 3)).WithK(2)},
		{"budget length mismatch", solver.Spec{Name: solver.NameGeneral}, inst(g, uniformBudgets(g.N()-1, 3))},
		{"negative budget", solver.Spec{Name: solver.NameGeneral}, inst(g, append(uniformBudgets(g.N()-1, 3), -1))},
		{"exact node cap", solver.Spec{Name: solver.NameExact}, inst(g, uniformBudgets(g.N(), 3))},
		{"base on a non-refiner", solver.Spec{Name: solver.NameGreedy, Base: solver.NameGreedy}, inst(g, uniformBudgets(g.N(), 3))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := solver.Solve(tc.in, tc.spec, solver.Options{Tries: 1, Src: rng.New(1)}); err == nil {
				t.Fatal("Solve accepted")
			}
			if g, err := solver.Guaranteed(tc.in, tc.spec); err == nil {
				t.Fatalf("Guaranteed accepted: %d", g)
			}
		})
	}
}

// TestBaselinesFeasible runs each deterministic baseline on a small graph
// and checks the driver's post-validation accepts the result.
func TestBaselinesFeasible(t *testing.T) {
	g := gen.GNP(18, 0.4, rng.New(9))
	budgets := uniformBudgets(g.N(), 2)
	for _, name := range []string{solver.NameGreedy, solver.NameLP, solver.NameExact, solver.NamePrune} {
		t.Run(name, func(t *testing.T) {
			s, err := solver.Solve(inst(g, budgets), solver.Spec{Name: name},
				solver.Options{Tries: 1, Src: rng.New(1)})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(g, budgets, 1); err != nil {
				t.Fatalf("%s schedule infeasible: %v", name, err)
			}
		})
	}
}

// TestPruneAtLeastGreedy pins the refinement contract: the prune solver is
// greedy plus redundancy pruning plus re-extension over the freed budget,
// so its lifetime can never be below the greedy baseline's.
func TestPruneAtLeastGreedy(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := gen.GNP(40, 0.2, rng.New(seed))
		budgets := uniformBudgets(g.N(), 5)
		opt := solver.Options{Tries: 1, Src: rng.New(seed)}
		greedy, err := solver.Solve(inst(g, budgets), solver.Spec{Name: solver.NameGreedy}, opt)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := solver.Solve(inst(g, budgets), solver.Spec{Name: solver.NamePrune}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := pruned.Validate(g, budgets, 1); err != nil {
			t.Fatalf("seed %d: pruned schedule infeasible: %v", seed, err)
		}
		if pruned.Lifetime() < greedy.Lifetime() {
			t.Fatalf("seed %d: prune lifetime %d < greedy %d", seed, pruned.Lifetime(), greedy.Lifetime())
		}
	}
}

// TestNoSolverExceedsExactOptimum holds every registry row to the exact
// integral optimum on small instances: no feasible schedule outlives it, so
// a lifetime above it is an infeasible schedule the driver's gates let
// through. Every row runs on every instance its Validate accepts, the
// refiners over greedy at a budget that makes several passes at this size.
// The graphs stay at n <= 12, where exact.Integral is fast.
func TestNoSolverExceedsExactOptimum(t *testing.T) {
	refiners := solver.RefinerNames()
	cases := 0
	for _, n := range []int{8, 10, 12} {
		for seed := uint64(1); seed <= 3; seed++ {
			src := rng.New(seed)
			g := gen.GNP(n, 0.4, src.Split())
			drawn := make([]int, n)
			for v := range drawn {
				drawn[v] = 1 + src.Intn(3)
			}
			for _, budgets := range [][]int{uniformBudgets(n, 2), drawn} {
				for _, k := range []int{1, 2} {
					in := inst(g, budgets).WithK(k)
					opt, _, _ := exact.Integral(g, budgets, k)
					for _, name := range solver.Names() {
						spec := solver.Spec{Name: name}
						if slices.Contains(refiners, name) {
							spec.Base = solver.NameGreedy
						}
						sv, err := solver.Resolve(name)
						if err != nil {
							t.Fatal(err)
						}
						if sv.Validate(in, spec) != nil {
							continue
						}
						s, err := solver.Solve(in, spec, solver.Options{Tries: 3, Budget: 2000, Src: rng.New(seed)})
						if err != nil {
							t.Fatalf("%s on n=%d seed=%d budgets=%v k=%d: %v", name, n, seed, budgets, k, err)
						}
						if s.Lifetime() > opt {
							t.Errorf("%s on n=%d seed=%d budgets=%v k=%d: lifetime %d exceeds the optimum %d",
								name, n, seed, budgets, k, s.Lifetime(), opt)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d solver × instance cases", cases)
}
