package solver_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/solver"
)

// gridInst builds a rows×cols grid instance with uniform budget b. No hint:
// the classifier must certify the structure from the graph alone.
func gridInst(rows, cols, b int) *instance.Instance {
	g := gen.Grid(rows, cols)
	return instance.New(g, uniformBudgets(g.N(), b))
}

// TestGridScheduleFeasibleAndStrong: on certified grids and tori the grid
// solver's phase-rotated tiling must be feasible (every phase dominates,
// usage within budgets — core.Schedule.Validate checks both) and at least
// as long-lived as the greedy baseline, which is what the tiling exists to
// beat by construction (five near-disjoint dominating translates).
func TestGridScheduleFeasibleAndStrong(t *testing.T) {
	cases := []struct {
		name string
		in   *instance.Instance
	}{
		{"grid 7x9", gridInst(7, 9, 6)},
		{"grid 12x12", gridInst(12, 12, 4)},
		{"torus 10x10", instance.New(gen.Torus(10, 10), uniformBudgets(100, 5))},
		{"torus 15x20", instance.New(gen.Torus(15, 20), uniformBudgets(300, 4))},
	}
	for _, tc := range cases {
		s, err := solver.Solve(tc.in, solver.Spec{Name: solver.NameGrid}, solver.Options{Src: rng.New(1)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := s.Validate(tc.in.Graph, tc.in.Budgets, 1); err != nil {
			t.Fatalf("%s: infeasible schedule: %v", tc.name, err)
		}
		greedy, err := solver.Solve(tc.in, solver.Spec{Name: solver.NameGreedy}, solver.Options{Src: rng.New(1)})
		if err != nil {
			t.Fatalf("%s: greedy: %v", tc.name, err)
		}
		if s.Lifetime() < greedy.Lifetime() {
			t.Errorf("%s: grid lifetime %d < greedy %d", tc.name, s.Lifetime(), greedy.Lifetime())
		}
	}
}

// TestGridFallsBackOffGrid: requesting "grid" on a non-grid instance (or a
// k-tolerant one) must degrade to greedy recruitment, not fail or emit an
// invalid tiling.
func TestGridFallsBackOffGrid(t *testing.T) {
	gnp := instance.New(gen.GNP(60, 0.2, rng.New(7)), uniformBudgets(60, 4))
	s, err := solver.Solve(gnp, solver.Spec{Name: solver.NameGrid}, solver.Options{Src: rng.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(gnp.Graph, gnp.Budgets, 1); err != nil {
		t.Fatalf("off-grid fallback infeasible: %v", err)
	}

	tolerant := gridInst(8, 8, 4).WithK(2)
	s2, err := solver.Solve(tolerant, solver.Spec{Name: solver.NameGrid}, solver.Options{Src: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(tolerant.Graph, tolerant.Budgets, 2); err != nil {
		t.Fatalf("k=2 fallback infeasible: %v", err)
	}
}

// TestAutoDispatch pins the portfolio rule at every branch: a certified
// grid (or mod-5 torus, where the pattern closes seamlessly) at tolerance 1
// → grid; leaky tori stay on greedy; small instances → exact; everything
// else → greedy. The rule must also be what Effective reports, since serve
// and the CLIs surface that name.
func TestAutoDispatch(t *testing.T) {
	big := gridInst(50, 50, 3)
	cases := []struct {
		name string
		in   *instance.Instance
		spec solver.Spec
		want string
	}{
		{"50x50 grid", big, solver.Spec{Name: solver.NameAuto}, solver.NameGrid},
		{"mod-5 torus", instance.New(gen.Torus(10, 10), uniformBudgets(100, 3)), solver.Spec{Name: solver.NameAuto}, solver.NameGrid},
		{"leaky torus stays on fallback", instance.New(gen.Torus(9, 9), uniformBudgets(81, 3)), solver.Spec{Name: solver.NameAuto}, solver.NameGreedy},
		{"small ring", instance.New(gen.Ring(12), uniformBudgets(12, 2)), solver.Spec{Name: solver.NameAuto}, solver.NameExact},
		{"gnp default fallback", instance.New(gen.GNP(80, 0.15, rng.New(5)), uniformBudgets(80, 3)), solver.Spec{Name: solver.NameAuto}, solver.NameGreedy},
		{"grid at k=2 skips tiling", gridInst(10, 10, 3).WithK(2), solver.Spec{Name: solver.NameAuto}, solver.NameGreedy},
	}
	for _, tc := range cases {
		_, eff, err := solver.Effective(tc.in, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if eff.Name != tc.want {
			t.Errorf("%s: auto dispatched to %q, want %q", tc.name, eff.Name, tc.want)
		}
	}
}

// TestAutoSolvesLikeDispatchTarget: an auto solve must be feasible and, on
// structured instances, match the dispatch target's deterministic output.
func TestAutoSolvesLikeDispatchTarget(t *testing.T) {
	in := gridInst(20, 20, 4)
	auto, err := solver.Solve(in, solver.Spec{Name: solver.NameAuto}, solver.Options{Src: rng.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := solver.Solve(in, solver.Spec{Name: solver.NameGrid}, solver.Options{Src: rng.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Lifetime() != direct.Lifetime() {
		t.Fatalf("auto lifetime %d != grid lifetime %d on the same grid", auto.Lifetime(), direct.Lifetime())
	}
	if err := auto.Validate(in.Graph, in.Budgets, 1); err != nil {
		t.Fatalf("auto schedule infeasible: %v", err)
	}
}

// TestRefineRejectsGridFastPath: the grid tiling opts out of refiner
// composition, and the rejection must fire at Validate time — including
// when the non-refinable base is only reached through auto's dispatch — so
// the serve layer can turn it into a decode-time 400.
func TestRefineRejectsGridFastPath(t *testing.T) {
	gridIn := gridInst(15, 15, 3)
	for _, base := range []string{solver.NameGrid, solver.NameAuto} {
		sv, err := solver.Resolve(solver.NameTabu)
		if err != nil {
			t.Fatal(err)
		}
		err = sv.Validate(gridIn, solver.Spec{Name: solver.NameTabu, Base: base})
		if err == nil {
			t.Fatalf("refine over base %q accepted on a grid", base)
		}
		if !strings.Contains(err.Error(), "non-refinable") {
			t.Fatalf("base %q: error %q does not name the non-refinable fast path", base, err)
		}
	}

	// Off-grid, auto resolves to a refinable solver and the pipeline is fine.
	gnp := instance.New(gen.GNP(80, 0.15, rng.New(9)), uniformBudgets(80, 3))
	sv, err := solver.Resolve(solver.NameTabu)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Validate(gnp, solver.Spec{Name: solver.NameTabu, Base: solver.NameAuto}); err != nil {
		t.Fatalf("refine over auto→greedy rejected off-grid: %v", err)
	}
}

// TestAutoGridBeatsUniformOn50x50 is the PR's acceptance benchmark in test
// form. Uniform on a grid is bimodal. With its default color range the WHP
// guarantee (δ = 2) is a single color class, so its schedule is pinned at
// lifetime b: the first draw attains the guarantee and the solver stops
// instantly with a schedule less than half as long-lived as the tiling's —
// no retry budget changes that. The only configuration under which uniform
// even attempts a comparable lifetime is an aggressive color range
// (KConst < 1 asks for more classes per the paper's δ̂/(K ln n) count), and
// there every random class fails domination: the whole retry budget runs
// and delivers nothing. The tiling reads the grid's 5-class partition off
// the certified embedding in one deterministic pass, so auto must beat the
// searching arm on wall clock AND strictly on lifetime, while also
// matching-or-beating the instant arm's lifetime. BENCH_PR10.json recorded
// the headline margin (36x); the test asserts a generous 3x so slow CI
// machines stay green. Arms take the best of three runs (each
// auto run classifies a fresh instance, the cost a real request pays;
// graph construction is outside the clock), so a cold cache or GC pause
// cannot flip the comparison.
func TestAutoGridBeatsUniformOn50x50(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	const uniformTries = 300
	g := gen.Grid(50, 50)
	budgets := uniformBudgets(g.N(), 3)
	minOf3 := func(f func()) time.Duration {
		best := time.Duration(1) << 62
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}

	var auto *core.Schedule
	var in *instance.Instance
	autoT := minOf3(func() {
		in = instance.New(g, budgets)
		var err error
		auto, err = solver.Solve(in, solver.Spec{Name: solver.NameAuto}, solver.Options{Src: rng.New(11)})
		if err != nil {
			t.Fatal(err)
		}
	})
	if err := auto.Validate(in.Graph, in.Budgets, 1); err != nil {
		t.Fatalf("auto schedule infeasible: %v", err)
	}

	instant, err := solver.Solve(in, solver.Spec{Name: solver.NameUniform},
		solver.Options{Tries: uniformTries, Src: rng.New(11)})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Lifetime() < instant.Lifetime() {
		t.Fatalf("auto lifetime %d < uniform's instant %d", auto.Lifetime(), instant.Lifetime())
	}

	var search *core.Schedule
	searchT := minOf3(func() {
		var err error
		search, err = solver.Solve(in, solver.Spec{Name: solver.NameUniform, KConst: 0.25},
			solver.Options{Tries: uniformTries, Src: rng.New(11)})
		if err != nil {
			t.Fatal(err)
		}
	})
	if auto.Lifetime() <= search.Lifetime() {
		t.Fatalf("auto lifetime %d does not beat uniform's %d-try search (%d)",
			auto.Lifetime(), uniformTries, search.Lifetime())
	}
	if autoT*3 > searchT {
		t.Fatalf("auto took %v, uniform search (K=0.25, tries=%d) %v; want at least 3x faster",
			autoT, uniformTries, searchT)
	}
}
