package agg

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestBFSTreeOnPath(t *testing.T) {
	g := gen.Path(5)
	tree, err := NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(g); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if tree.depth[v] != v {
			t.Errorf("depth(%d) = %d, want %d", v, tree.depth[v], v)
		}
		if tree.Parent[v] != v-1 {
			t.Errorf("parent(%d) = %d, want %d", v, tree.Parent[v], v-1)
		}
	}
}

func TestBFSTreeRejectsDisconnected(t *testing.T) {
	g := graph.NewFromEdges(4, [][2]int{{0, 1}})
	if _, err := NewBFSTree(g, 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestBFSTreeRejectsBadSink(t *testing.T) {
	if _, err := NewBFSTree(gen.Path(3), 7); err == nil {
		t.Fatal("out-of-range sink accepted")
	}
}

func TestDeliveryCostWithAggregation(t *testing.T) {
	// Path 0-1-2-3-4, sink 0. Sources {4}: cost 4 edges. Sources {4, 3}:
	// still 4 (3's path is a prefix of 4's). Sources {2, 4}: 4.
	g := gen.Path(5)
	tree, err := NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := tree.DeliveryCost([]int{4}); c != 4 {
		t.Errorf("cost({4}) = %d, want 4", c)
	}
	if c := tree.DeliveryCost([]int{4, 3}); c != 4 {
		t.Errorf("cost({4,3}) = %d, want 4 (aggregation)", c)
	}
	if c := tree.DeliveryCost([]int{2, 4}); c != 4 {
		t.Errorf("cost({2,4}) = %d, want 4", c)
	}
	if c := tree.DeliveryCost(nil); c != 0 {
		t.Errorf("cost(∅) = %d, want 0", c)
	}
	if c := tree.DeliveryCost([]int{0}); c != 0 {
		t.Errorf("cost({sink}) = %d, want 0", c)
	}
}

func TestDeliveryCostStarBranches(t *testing.T) {
	// Star with sink at center: each leaf costs its own edge; no sharing.
	g := gen.Star(6)
	tree, err := NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := tree.DeliveryCost([]int{1, 2, 3}); c != 3 {
		t.Errorf("cost = %d, want 3", c)
	}
}

func TestBFSTreeOnRandomGraphs(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 10; trial++ {
		g := gen.GNP(60, 0.15, src)
		if !g.Connected() {
			continue
		}
		sink := src.Intn(g.N())
		tree, err := NewBFSTree(g, sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(g); err != nil {
			t.Fatal(err)
		}
		// BFS depths must equal graph distances.
		dist := g.BFS(sink)
		for v := 0; v < g.N(); v++ {
			if tree.depth[v] != dist[v] {
				t.Fatalf("depth(%d) = %d, BFS distance %d", v, tree.depth[v], dist[v])
			}
		}
	}
}

func TestDeliveryCostBounds(t *testing.T) {
	// Cost of all nodes as sources = n-1 tree edges exactly.
	src := rng.New(2)
	g := gen.GNP(40, 0.2, src)
	if !g.Connected() {
		t.Skip("unlucky disconnected instance")
	}
	tree, err := NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	if c := tree.DeliveryCost(all); c != g.N()-1 {
		t.Fatalf("cost(all) = %d, want %d", c, g.N()-1)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := gen.Path(4)
	tree, err := NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong node count.
	bad := &Tree{Sink: 0, Parent: []int{-1, 0}}
	if err := bad.Validate(g); err == nil {
		t.Error("node-count mismatch accepted")
	}
	// Sink with a parent.
	p := append([]int(nil), tree.Parent...)
	p[0] = 1
	if err := (&Tree{Sink: 0, Parent: p, depth: []int{0, 1, 2, 3}}).Validate(g); err == nil {
		t.Error("sink with parent accepted")
	}
	// Parent not an edge.
	p2 := append([]int(nil), tree.Parent...)
	p2[3] = 0 // no edge 3-0 in P4
	if err := (&Tree{Sink: 0, Parent: p2, depth: []int{0, 1, 2, 3}}).Validate(g); err == nil {
		t.Error("non-edge parent accepted")
	}
	// Out-of-range parent.
	p3 := append([]int(nil), tree.Parent...)
	p3[2] = 9
	if err := (&Tree{Sink: 0, Parent: p3, depth: []int{0, 1, 2, 3}}).Validate(g); err == nil {
		t.Error("out-of-range parent accepted")
	}
	// Wrong depth.
	if err := (&Tree{Sink: 0, Parent: tree.Parent, depth: []int{0, 1, 1, 3}}).Validate(g); err == nil {
		t.Error("bad depth accepted")
	}
}
