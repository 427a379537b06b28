package domatic

import (
	"math"
	"testing"

	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestVerifyAcceptsPlanted(t *testing.T) {
	g, planted := gen.PlantedDomatic(24, 4, 10, rng.New(1))
	if err := Partition(planted).Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsOverlap(t *testing.T) {
	g := gen.Complete(4)
	p := Partition{{0, 1}, {1, 2}}
	if err := p.Verify(g); err == nil {
		t.Fatal("overlapping sets passed verification")
	}
}

func TestVerifyRejectsNonDominating(t *testing.T) {
	g := gen.Path(5)
	p := Partition{{0}} // leaves 2,3,4 uncovered
	if err := p.Verify(g); err == nil {
		t.Fatal("non-dominating set passed verification")
	}
}

func TestVerifyRejectsOutOfRange(t *testing.T) {
	g := gen.Path(3)
	if err := (Partition{{7}}).Verify(g); err == nil {
		t.Fatal("out-of-range node passed verification")
	}
}

func TestUpperBound(t *testing.T) {
	if ub := UpperBound(gen.Complete(5)); ub != 5 {
		t.Errorf("K5 upper bound = %d, want 5", ub)
	}
	if ub := UpperBound(gen.Path(5)); ub != 2 {
		t.Errorf("P5 upper bound = %d, want 2", ub)
	}
	if ub := UpperBound(graph.New(0)); ub != 0 {
		t.Errorf("empty upper bound = %d, want 0", ub)
	}
}

func TestFeigeLowerBound(t *testing.T) {
	g := gen.Complete(10) // δ = Δ = 9
	want := 10 / math.Log(9)
	if got := FeigeLowerBound(g); math.Abs(got-want) > 1e-9 {
		t.Errorf("Feige bound on K10 = %v, want %v", got, want)
	}
	// Δ <= 1: falls back to δ+1.
	if got := FeigeLowerBound(gen.Path(2)); got != 2 {
		t.Errorf("Feige bound on K2 = %v, want 2", got)
	}
}

func TestGreedyPartitionCompleteGraph(t *testing.T) {
	g := gen.Complete(6)
	p := GreedyPartition(g, GreedyExtractor)
	if err := p.Verify(g); err != nil {
		t.Fatal(err)
	}
	if len(p) != 6 { // every singleton dominates K6
		t.Fatalf("greedy on K6 found %d sets, want 6", len(p))
	}
}

func TestGreedyPartitionRespectsUpperBound(t *testing.T) {
	src := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		g := gen.GNP(40, 0.3, src)
		p := GreedyPartition(g, GreedyExtractor)
		if err := p.Verify(g); err != nil {
			t.Fatal(err)
		}
		if len(p) > UpperBound(g) {
			t.Fatalf("greedy found %d sets > upper bound %d", len(p), UpperBound(g))
		}
	}
}

// TestGreedyPartitionEmptyGraph: on the empty graph every extractor returns
// the empty set, which uses up no node, so the partition ends at once.
func TestGreedyPartitionEmptyGraph(t *testing.T) {
	for _, extract := range []Extractor{GreedyExtractor, MinimumExtractor, ConstrainedExtractor} {
		if p := GreedyPartition(graph.New(0), extract); len(p) != 0 {
			t.Fatalf("partition of the empty graph = %v, want none", p)
		}
	}
}

func TestGreedyPartitionFindsAtLeastOneSet(t *testing.T) {
	// Any non-empty graph admits at least the all-nodes dominating set, and
	// greedy's first extraction always succeeds.
	g := gen.Path(7)
	p := GreedyPartition(g, GreedyExtractor)
	if len(p) < 1 {
		t.Fatal("greedy found no dominating set at all")
	}
}

func TestGreedyMinimumCollapsesOnFujitaTrap(t *testing.T) {
	// The heart of experiment E7: greedy-with-minimum-DS finds exactly 2
	// sets while the planted partition proves the domatic number is >= k.
	for _, k := range []int{3, 4} {
		g, planted := gen.FujitaTrap(k)
		p := GreedyPartition(g, MinimumExtractor)
		if err := p.Verify(g); err != nil {
			t.Fatal(err)
		}
		if len(p) != 2 {
			t.Fatalf("k=%d: greedy-min found %d sets, want exactly 2", k, len(p))
		}
		if len(planted) != k {
			t.Fatalf("planted partition has %d sets, want %d", len(planted), k)
		}
	}
}

func TestRandomColoringClassesArePartition(t *testing.T) {
	src := rng.New(3)
	g := gen.GNP(200, 0.2, src)
	p := RandomColoring(g, 3, src)
	seen := make([]bool, g.N())
	for _, class := range p {
		for _, v := range class {
			if seen[v] {
				t.Fatalf("node %d in two classes", v)
			}
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("node %d unassigned", v)
		}
	}
}

func TestRandomColoringDenseGraphGuaranteedPrefix(t *testing.T) {
	// Lemma 4.2: the first ⌊δ/(3 ln n)⌋ classes are dominating w.h.p.
	// Classes above that index carry no guarantee (only nodes with larger
	// two-hop minimum degree draw them).
	src := rng.New(4)
	g := gen.GNP(300, 0.5, src)
	p := RandomColoring(g, 3, src)
	guaranteed := GuaranteedClasses(g, 3)
	if guaranteed < 2 {
		t.Fatalf("test graph too sparse: guarantee is only %d classes", guaranteed)
	}
	if got := ValidPrefix(g, p); got < guaranteed {
		t.Errorf("valid prefix %d below guaranteed %d (of %d classes)", got, guaranteed, len(p))
	}
}

func TestRandomColoringLowDegreeSingleClass(t *testing.T) {
	// On a path, δ²/(3 ln n) < 1, so everyone picks color 0: one class,
	// which is the whole node set and trivially dominating.
	src := rng.New(5)
	g := gen.Path(50)
	p := RandomColoring(g, 3, src)
	if len(p) != 1 {
		t.Fatalf("path coloring produced %d classes, want 1", len(p))
	}
	if ValidPrefix(g, p) != 1 {
		t.Fatal("the all-nodes class must be dominating")
	}
}

func TestRandomColoringPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K=0 did not panic")
		}
	}()
	RandomColoring(gen.Path(3), 0, rng.New(1))
}

func TestRandomColoringSingleNode(t *testing.T) {
	p := RandomColoring(graph.New(1), 3, rng.New(1))
	if len(p) != 1 || len(p[0]) != 1 {
		t.Fatalf("singleton coloring = %v", p)
	}
}

func TestValidPrefixAndCount(t *testing.T) {
	g := gen.Complete(4)
	p := Partition{{0}, {}, {1}, {2, 3}} // second class empty → not dominating
	if got := ValidPrefix(g, p); got != 1 {
		t.Errorf("ValidPrefix = %d, want 1", got)
	}
	if got := CountDominating(g, p); got != 3 {
		t.Errorf("CountDominating = %d, want 3", got)
	}
}

func TestExactDomaticNumberKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K4", gen.Complete(4), 4},
		{"K2", gen.Complete(2), 2},
		{"P2", gen.Path(2), 2},
		{"P4", gen.Path(4), 2},
		{"P5", gen.Path(5), 2},
		{"C3", gen.Ring(3), 3},
		{"C4", gen.Ring(4), 2},
		{"C5", gen.Ring(5), 2},
		{"C6", gen.Ring(6), 3}, // classes {0,3},{1,4},{2,5}
		{"star5", gen.Star(5), 2},
		{"singleton", graph.New(1), 1},
		{"two isolated", graph.New(2), 1},
		// Classes {0,5}, {1,4}, {2,3} witness d=3 on the 2×3 grid; δ+1=3
		// caps it there.
		{"grid2x3", gen.Grid(2, 3), 3},
	}
	for _, c := range cases {
		if got := ExactDomaticNumber(c.g); got != c.want {
			t.Errorf("%s: domatic number = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestExactPartitionIsValid(t *testing.T) {
	g := gen.Ring(6)
	p := ExactPartition(g, 3)
	if p == nil {
		t.Fatal("C6 should have a 3-partition")
	}
	if err := p.Verify(g); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, set := range p {
		total += len(set)
	}
	if total != 6 {
		t.Fatalf("partition covers %d of 6 nodes", total)
	}
}

func TestExactPartitionInfeasible(t *testing.T) {
	if p := ExactPartition(gen.Path(4), 3); p != nil {
		t.Fatalf("P4 has no 3-partition, got %v", p)
	}
}

func TestExactPartitionD1(t *testing.T) {
	p := ExactPartition(gen.Path(3), 1)
	if p == nil || len(p) != 1 || len(p[0]) != 3 {
		t.Fatalf("d=1 partition = %v", p)
	}
}

func TestExactMatchesPlantedLowerBound(t *testing.T) {
	src := rng.New(6)
	g, planted := gen.PlantedDomatic(12, 3, 4, src)
	d := ExactDomaticNumber(g)
	if d < len(planted) {
		t.Fatalf("exact %d below planted certificate %d", d, len(planted))
	}
	if d > UpperBound(g) {
		t.Fatalf("exact %d above δ+1 = %d", d, UpperBound(g))
	}
}

func TestGreedyNeverExceedsExact(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 8; trial++ {
		g := gen.GNP(14, 0.35, src)
		exact := ExactDomaticNumber(g)
		greedy := GreedyPartition(g, GreedyExtractor)
		if len(greedy) > exact {
			t.Fatalf("trial %d: greedy %d > exact %d", trial, len(greedy), exact)
		}
	}
}

func TestPartitionClassesAreDominatingProperty(t *testing.T) {
	// Property: every class of an ExactPartition is a dominating set
	// (random small instances).
	src := rng.New(8)
	for trial := 0; trial < 10; trial++ {
		g := gen.GNP(10, 0.5, src)
		d := ExactDomaticNumber(g)
		p := ExactPartition(g, d)
		if p == nil {
			t.Fatalf("trial %d: no partition at exact d=%d", trial, d)
		}
		for i, set := range p {
			if !domset.IsDominating(g, set, nil) {
				t.Fatalf("trial %d: class %d of exact partition not dominating", trial, i)
			}
		}
	}
}

func TestExactDomaticNumberCompleteBipartite(t *testing.T) {
	// K_{a,b}: domatic number min(a,b) for a,b >= 2, and 2 for stars.
	cases := []struct{ a, b, want int }{
		{1, 1, 2}, {1, 4, 2}, {2, 2, 2}, {2, 5, 2}, {3, 3, 3}, {3, 4, 3},
	}
	for _, c := range cases {
		g := gen.CompleteBipartite(c.a, c.b)
		if got := ExactDomaticNumber(g); got != c.want {
			t.Errorf("K(%d,%d): domatic = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestExactDomaticNumberHypercube(t *testing.T) {
	// Q3 has domatic number 4 (perfect domination by two antipodal codes
	// twice over); Q2 = C4 has 2.
	if got := ExactDomaticNumber(gen.Hypercube(2)); got != 2 {
		t.Errorf("Q2 domatic = %d, want 2", got)
	}
	if got := ExactDomaticNumber(gen.Hypercube(3)); got != 4 {
		t.Errorf("Q3 domatic = %d, want 4", got)
	}
}
