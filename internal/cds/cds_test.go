package cds

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestIsConnectedDominating(t *testing.T) {
	g := gen.Path(5)
	if !IsConnectedDominating(g, []int{1, 2, 3}) {
		t.Error("{1,2,3} is a CDS of P5")
	}
	if IsConnectedDominating(g, []int{1, 3}) {
		t.Error("{1,3} dominates P5 but is disconnected")
	}
	if IsConnectedDominating(g, []int{1}) {
		t.Error("{1} does not dominate P5")
	}
	if !IsConnectedDominating(gen.Star(6), []int{0}) {
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
		if !IsConnectedDominating(g, set) {
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

func TestConnectRepairsDisconnectedDS(t *testing.T) {
	g := gen.Path(5)
	set := Connect(g, []int{1, 3}, nil)
	if set == nil {
		t.Fatal("Connect failed")
	}
	if !IsConnectedDominating(g, set) {
		t.Fatalf("%v not a CDS after repair", set)
	}
	// Must contain the original dominators.
	found := map[int]bool{}
	for _, v := range set {
		found[v] = true
	}
	if !found[1] || !found[3] {
		t.Fatalf("repair dropped original dominators: %v", set)
	}
}

func TestConnectAlreadyConnectedIsNoop(t *testing.T) {
	g := gen.Path(5)
	set := Connect(g, []int{1, 2, 3}, nil)
	if len(set) != 3 {
		t.Fatalf("no-op repair changed the set: %v", set)
	}
}

func TestConnectRejectsNonDominating(t *testing.T) {
	g := gen.Path(5)
	if set := Connect(g, []int{0}, nil); set != nil {
		t.Fatalf("non-dominating input accepted: %v", set)
	}
}

func TestConnectBlockedConnectors(t *testing.T) {
	g := gen.Path(5)
	// {1,3} needs node 2 as connector, but 2 is disallowed.
	allowed := []bool{true, true, false, true, true}
	if set := Connect(g, []int{1, 3}, allowed); set != nil {
		t.Fatalf("expected nil when connectors blocked, got %v", set)
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
		if !IsConnectedDominating(g, set) {
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
			if !IsConnectedDominating(g, set) {
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
