package energy

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

func TestNewNetworkDefaults(t *testing.T) {
	g := gen.Path(4)
	net := NewNetwork(g, []int{1, 2, 3, 4})
	if net.AliveCount() != 4 {
		t.Fatal("not all nodes alive initially")
	}
	if net.TotalResidual() != 10 {
		t.Fatalf("total residual = %d, want 10", net.TotalResidual())
	}
}

func TestNewNetworkCopiesBudgets(t *testing.T) {
	g := gen.Path(2)
	budgets := []int{5, 5}
	net := NewNetwork(g, budgets)
	budgets[0] = 0
	if net.Residual[0] != 5 {
		t.Fatal("network aliased caller's budget slice")
	}
}

func TestNewNetworkSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	NewNetwork(gen.Path(3), []int{1})
}

func TestUniformBudgets(t *testing.T) {
	g := gen.Path(3)
	b := Uniform(g, 7)
	for _, v := range b {
		if v != 7 {
			t.Fatalf("budgets = %v", b)
		}
	}
}

func TestDrainAndCanServe(t *testing.T) {
	g := gen.Path(3)
	net := NewNetwork(g, []int{2, 1, 0})
	if !net.CanServe(0) || !net.CanServe(1) || net.CanServe(2) {
		t.Fatal("CanServe wrong on fresh network")
	}
	if served := net.DrainServiceable(nil, []int{0, 1}); len(served) != 2 {
		t.Fatalf("served %v, want [0 1]", served)
	}
	if net.Residual[0] != 1 || net.Residual[1] != 0 {
		t.Fatalf("residuals = %v", net.Residual)
	}
	if net.CanServe(1) {
		t.Fatal("exhausted node still serves")
	}
	if served := net.DrainServiceable(nil, []int{1}); served != nil {
		t.Fatalf("exhausted node served: %v", served)
	}
}

func TestKillIdempotent(t *testing.T) {
	g := gen.Path(3)
	net := NewNetwork(g, Uniform(g, 1))
	net.Kill(0)
	net.Kill(0)
	if net.AliveCount() != 2 {
		t.Fatalf("alive = %d, want 2", net.AliveCount())
	}
	// TotalResidual ignores dead nodes.
	if net.TotalResidual() != 2 {
		t.Fatalf("residual = %d, want 2", net.TotalResidual())
	}
}

func TestFailurePlanSort(t *testing.T) {
	p := FailurePlan{{Time: 5, Node: 1}, {Time: 1, Node: 9}, {Time: 1, Node: 2}}
	p.Sort()
	if p[0].Node != 2 || p[1].Node != 9 || p[2].Node != 1 {
		t.Fatalf("sorted plan = %v", p)
	}
}

func TestRandomFailures(t *testing.T) {
	g := gen.Grid(5, 5)
	src := rng.New(1)
	plan := RandomFailures(g, 8, 20, src)
	if len(plan) != 8 {
		t.Fatalf("plan has %d entries, want 8", len(plan))
	}
	seen := map[int]bool{}
	for _, f := range plan {
		if f.Time < 0 || f.Time >= 20 {
			t.Fatalf("failure time %d out of horizon", f.Time)
		}
		if seen[f.Node] {
			t.Fatalf("node %d killed twice", f.Node)
		}
		seen[f.Node] = true
	}
	// Requesting more failures than nodes clamps.
	if p := RandomFailures(gen.Path(3), 10, 5, src); len(p) != 3 {
		t.Fatalf("clamped plan has %d entries", len(p))
	}
}

func TestNeighborhoodFailures(t *testing.T) {
	g := gen.Grid(6, 6)
	src := rng.New(2)
	plan := NeighborhoodFailures(g, 3, 2, 10, src)
	if len(plan) == 0 || len(plan) > 6 {
		t.Fatalf("plan size %d unexpected", len(plan))
	}
	seen := map[int]bool{}
	for _, f := range plan {
		if seen[f.Node] {
			t.Fatalf("node %d killed twice", f.Node)
		}
		seen[f.Node] = true
	}
}

func TestDrainServiceable(t *testing.T) {
	g := gen.Path(5)
	net := NewNetwork(g, []int{2, 0, 1, 2, 2})
	net.Kill(3)
	served := net.DrainServiceable(nil, []int{0, 1, 2, 3, 4, 0, 7, -1})
	want := []int{0, 2, 4}
	if len(served) != len(want) {
		t.Fatalf("served %v, want %v", served, want)
	}
	for i := range want {
		if served[i] != want[i] {
			t.Fatalf("served %v, want %v", served, want)
		}
	}
	// Node 0 appeared twice but is charged once; dead/empty/out-of-range
	// members are skipped without effect.
	if net.Residual[0] != 1 || net.Residual[1] != 0 || net.Residual[2] != 0 {
		t.Fatalf("unexpected residuals %v", net.Residual)
	}
	if net.Residual[3] != 2 {
		t.Fatal("dead node was charged")
	}
}

func TestDrainServiceableEmpty(t *testing.T) {
	g := gen.Path(2)
	net := NewNetwork(g, Uniform(g, 0))
	if served := net.DrainServiceable(nil, []int{0, 1}); served != nil {
		t.Fatalf("zero-budget network served %v", served)
	}
}
