package domatic

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestRandomColoringGlobalMatchesLocalOnRegularGraphs(t *testing.T) {
	// On a regular graph δ²_v = δ for every node, so the local and global
	// variants draw from identical ranges and produce the same number of
	// classes in expectation; here we check the range widths directly.
	g := gen.Circulant(120, 40)
	src := rng.New(1)
	local := RandomColoring(g, 3, src)
	global := RandomColoringGlobal(g, 3, rng.New(1))
	want := UniformColorRange(g.MinDegree(), g.N(), 3)
	if len(local) > want || len(global) > want {
		t.Fatalf("classes local=%d global=%d exceed range width %d", len(local), len(global), want)
	}
}

func TestRandomColoringGlobalIsPartition(t *testing.T) {
	g := gen.GNP(150, 0.3, rng.New(2))
	p := RandomColoringGlobal(g, 3, rng.New(3))
	seen := make([]bool, g.N())
	for _, class := range p {
		for _, v := range class {
			if seen[v] {
				t.Fatalf("node %d colored twice", v)
			}
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("node %d uncolored", v)
		}
	}
}

func TestRandomColoringGlobalPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K=0 did not panic")
		}
	}()
	RandomColoringGlobal(gen.Path(3), 0, rng.New(1))
}

func TestRandomColoringGlobalEmptyGraph(t *testing.T) {
	if p := RandomColoringGlobal(graph.New(0), 3, rng.New(1)); p != nil {
		t.Fatalf("empty graph coloring = %v", p)
	}
}

func TestGuaranteedClassesEdgeCases(t *testing.T) {
	if got := GuaranteedClasses(graph.New(1), 3); got != 1 {
		t.Fatalf("single node guarantee = %d, want 1", got)
	}
	if got := GuaranteedClasses(graph.New(0), 3); got != 1 {
		t.Fatalf("empty graph guarantee = %d, want 1", got)
	}
	if got := GuaranteedClasses(gen.Path(100), 3); got != 1 {
		t.Fatalf("sparse guarantee = %d, want 1 (δ=1)", got)
	}
	// Dense: K50 has δ = 49, ln 50 ≈ 3.9 → ⌊49/11.7⌋ = 4.
	if got := GuaranteedClasses(gen.Complete(50), 3); got != 4 {
		t.Fatalf("K50 guarantee = %d, want 4", got)
	}
}

func TestExactDomaticNumberIsolatedNodeForcesOne(t *testing.T) {
	g := graph.NewFromEdges(4, [][2]int{{0, 1}, {1, 2}}) // node 3 isolated
	if d := ExactDomaticNumber(g); d != 1 {
		t.Fatalf("domatic number with isolated node = %d, want 1", d)
	}
}

// TestColoringPartitionProperty uses testing/quick over seeds: for any seed,
// RandomColoring must produce a partition of all nodes whose classes each
// stay within the node-specific range widths.
func TestColoringPartitionProperty(t *testing.T) {
	g := gen.GNP(80, 0.25, rng.New(9))
	d2 := g.TwoHopMinDegree()
	prop := func(seed uint64) bool {
		p := RandomColoring(g, 3, rng.New(seed))
		count := 0
		for c, class := range p {
			for _, v := range class {
				count++
				if c >= UniformColorRange(d2[v], g.N(), 3) {
					return false // node drew a color outside its range
				}
			}
		}
		return count == g.N()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGreedyPartitionDisjointProperty: for arbitrary seeds/densities the
// greedy partition is always verified disjoint-and-dominating.
func TestGreedyPartitionDisjointProperty(t *testing.T) {
	prop := func(seed uint64, denseBits uint8) bool {
		p := 0.1 + float64(denseBits%64)/100.0
		g := gen.GNP(24, p, rng.New(seed))
		part := GreedyPartition(g, GreedyExtractor)
		return part.Verify(g) == nil && len(part) <= UpperBound(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
