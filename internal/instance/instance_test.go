package instance

import (
	"testing"

	"repro/internal/gen"
)

func uniform(n, b int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestInstanceBasics(t *testing.T) {
	g := gen.Grid(4, 4)
	in := New(g, uniform(16, 3))
	if in.N() != 16 || in.Tolerance() != 1 {
		t.Fatalf("N=%d tolerance=%d", in.N(), in.Tolerance())
	}
	if in.WithK(2).Tolerance() != 2 {
		t.Fatalf("WithK(2) tolerance = %d", in.Tolerance())
	}
	if in.WithK(0).Tolerance() != 1 || in.WithK(-3).Tolerance() != 1 {
		t.Fatal("non-positive K must read as tolerance 1")
	}
}

func TestMetaCached(t *testing.T) {
	in := New(gen.Grid(5, 5), uniform(25, 2))
	m1 := in.Meta()
	m2 := in.Meta()
	if m1 != m2 {
		t.Fatal("Meta must be computed once and cached")
	}
	if m1.Class != Grid {
		t.Fatalf("5x5 grid classified as %v", m1.Class)
	}
}

func TestWithBudgetsSharesMeta(t *testing.T) {
	in := New(gen.Grid(5, 5), uniform(25, 2)).WithK(1)
	m := in.Meta()
	out := in.WithBudgets(uniform(25, 7))
	if out.Meta() != m {
		t.Fatal("WithBudgets must carry the computed Meta over")
	}
	if out.Budgets[0] != 7 || in.Budgets[0] != 2 {
		t.Fatal("WithBudgets must not alias the parent's budgets")
	}
}

func TestDerive(t *testing.T) {
	parent := New(gen.Grid(6, 6), uniform(36, 3)).WithK(2)
	if parent.Meta().Class != Grid {
		t.Fatal("parent should verify as grid")
	}
	// A rectangular tile of the grid re-verifies as a grid.
	nodes := []int{0, 1, 2, 6, 7, 8, 12, 13, 14} // 3x3 corner tile
	sub, _ := parent.Graph.InducedSubgraph(nodes)
	child := Derive(parent, sub, uniform(9, 3))
	if child.K != 2 {
		t.Fatalf("child K = %d, want inherited 2", child.K)
	}
	if child.Meta().Class != Grid {
		t.Fatalf("3x3 tile classified as %v", child.Meta().Class)
	}
	// An irregular subgraph honestly lands off-grid.
	irr, _ := parent.Graph.InducedSubgraph([]int{0, 1, 2, 3, 6, 7, 12, 18, 19, 20})
	if c := Derive(parent, irr, uniform(10, 3)).Meta().Class; c == Grid || c == Torus {
		t.Fatalf("irregular tile classified as %v", c)
	}
}
