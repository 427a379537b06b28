package cds

import (
	"testing"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// isConnectedDominating reports whether set is a dominating set of g whose
// induced subgraph is connected. The empty set qualifies only for the empty
// graph; a singleton is connected by definition. It is the oracle the
// tests check every constructed CDS against.
func isConnectedDominating(g *graph.Graph, set []int) bool {
	if !domset.IsDominating(g, set, nil) {
		return false
	}
	if len(set) <= 1 {
		return true
	}
	sub, _ := g.InducedSubgraph(set)
	return sub.Connected()
}

func TestIsConnectedDominating(t *testing.T) {
	g := gen.Path(5)
	if !isConnectedDominating(g, []int{1, 2, 3}) {
		t.Error("{1,2,3} is a CDS of P5")
	}
	if isConnectedDominating(g, []int{1, 3}) {
		t.Error("{1,3} dominates P5 but is disconnected")
	}
	if isConnectedDominating(g, []int{1}) {
		t.Error("{1} does not dominate P5")
	}
	if !isConnectedDominating(gen.Star(6), []int{0}) {
		t.Error("star center is a singleton CDS")
	}
}

func TestGrowthProducesCDS(t *testing.T) {
	src := rng.New(1)
	graphs := []*graph.Graph{
		gen.Path(12),
		gen.Ring(15),
		gen.Star(9),
		gen.Complete(7),
		gen.Grid(5, 6),
		gen.RandomTree(40, src),
	}
	for i, g := range graphs {
		set := Growth(g, nil)
		if set == nil {
			t.Fatalf("graph %d: Growth returned nil on connected graph", i)
		}
		if !isConnectedDominating(g, set) {
			t.Fatalf("graph %d: %v not a CDS", i, set)
		}
	}
}

func TestGrowthSingleNode(t *testing.T) {
	if set := Growth(graph.New(1), nil); len(set) != 1 {
		t.Fatalf("singleton CDS = %v", set)
	}
}

func TestGrowthDisconnectedReturnsNil(t *testing.T) {
	g := graph.NewFromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if set := Growth(g, nil); set != nil {
		t.Fatalf("disconnected graph yielded CDS %v", set)
	}
}

func TestGrowthRespectsAllowed(t *testing.T) {
	g := gen.Path(5)
	allowed := []bool{false, true, true, true, false}
	set := Growth(g, allowed)
	if set == nil {
		t.Fatal("interior of P5 should form an allowed CDS")
	}
	for _, v := range set {
		if !allowed[v] {
			t.Fatalf("disallowed node %d in CDS %v", v, set)
		}
	}
	// Infeasible restriction: leaves cannot be dominated.
	bad := []bool{true, false, true, false, true}
	if set := Growth(g, bad); set != nil {
		t.Fatalf("expected nil for infeasible restriction, got %v", set)
	}
}

func TestGreedyConnectedPartition(t *testing.T) {
	g := gen.Complete(8)
	p := GreedyConnectedPartition(g)
	if err := p.Verify(g); err != nil {
		t.Fatal(err)
	}
	if len(p) != 8 {
		t.Fatalf("K8 connected partition has %d sets, want 8 singletons", len(p))
	}
	for _, set := range p {
		if !isConnectedDominating(g, set) {
			t.Fatalf("class %v not connected", set)
		}
	}
}

func TestConnectedPartitionNeverLargerThanPlain(t *testing.T) {
	// Connectivity is an extra constraint: the greedy connected partition
	// can never contain more sets than the plain greedy partition bound δ+1,
	// and each of its sets must be a CDS.
	src := rng.New(2)
	for trial := 0; trial < 5; trial++ {
		g := gen.GNP(30, 0.35, src)
		if !g.Connected() {
			continue
		}
		p := GreedyConnectedPartition(g)
		if len(p) > g.MinDegree()+1 {
			t.Fatalf("trial %d: %d connected sets exceed δ+1 = %d", trial, len(p), g.MinDegree()+1)
		}
		for _, set := range p {
			if !isConnectedDominating(g, set) {
				t.Fatalf("trial %d: non-CDS class %v", trial, set)
			}
		}
	}
}

func TestGrowthCDSIsReasonablySmall(t *testing.T) {
	// Sanity on approximation quality: on a star, Growth must pick just the
	// center; on a path of n nodes a CDS has n-2 nodes (all interior).
	if set := Growth(gen.Star(20), nil); len(set) != 1 {
		t.Fatalf("star CDS = %v, want center only", set)
	}
	if set := Growth(gen.Path(10), nil); len(set) != 8 {
		t.Fatalf("P10 CDS size = %d, want 8", len(set))
	}
}

func TestScheduleIsConnectedBackbone(t *testing.T) {
	src := rng.New(1)
	g, _ := gen.RandomUDG(120, 10, 2.6, src)
	if !g.Connected() {
		t.Skip("unlucky disconnected deployment")
	}
	// Each class of the greedy connected partition is active for b slots:
	// every phase is a connected backbone, and the whole is a plain valid
	// schedule under the uniform battery b.
	const b = 3
	s := core.FromPartition(GreedyConnectedPartition(g), b)
	if s.Lifetime() == 0 {
		t.Fatal("no connected backbone schedule at all")
	}
	for i, p := range s.Phases {
		if !isConnectedDominating(g, p.Set) {
			t.Fatalf("phase %d is not a connected dominating set", i)
		}
	}
	batteries := make([]int, g.N())
	for i := range batteries {
		batteries[i] = b
	}
	if err := s.Validate(g, batteries, 1); err != nil {
		t.Fatal(err)
	}
}
