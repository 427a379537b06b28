package exact

import (
	"math"
	"testing"

	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestMinimumWeightExactMatchesCardinalityCase(t *testing.T) {
	// Unit weights: the minimum-weight DS is a minimum-cardinality DS.
	src := rng.New(1)
	for trial := 0; trial < 10; trial++ {
		g := gen.GNP(12, 0.3, src)
		w := make([]float64, g.N())
		for i := range w {
			w[i] = 1
		}
		set, weight := domset.MinimumWeightExact(g, w, 1)
		card := domset.MinimumExact(g, nil)
		if int(math.Round(weight)) != len(card) || len(set) != len(card) {
			t.Fatalf("trial %d: weighted min %v (%.1f) vs cardinality min %d",
				trial, set, weight, len(card))
		}
		if !domset.IsDominating(g, set, nil) {
			t.Fatalf("trial %d: weighted result not dominating", trial)
		}
	}
}

func TestMinimumWeightExactPrefersCheapNodes(t *testing.T) {
	// Star: center weight 10, leaves weight 1 each. For a star with 4
	// leaves, the all-leaves set costs 4 < 10, so the center is avoided.
	g := gen.Star(5)
	w := []float64{10, 1, 1, 1, 1}
	set, weight := domset.MinimumWeightExact(g, w, 1)
	if weight != 4 || len(set) != 4 {
		t.Fatalf("set %v weight %.1f, want the 4 leaves at weight 4", set, weight)
	}
}

func TestMinimumWeightExactInfeasibleK(t *testing.T) {
	g := gen.Path(3)
	set, weight := domset.MinimumWeightExact(g, []float64{1, 1, 1}, 5)
	if set != nil || !math.IsInf(weight, 1) {
		t.Fatalf("infeasible k should yield (nil, +Inf), got (%v, %v)", set, weight)
	}
}

func TestColumnGenerationMatchesFullEnumeration(t *testing.T) {
	// On small graphs the CG optimum must equal the full-enumeration LP.
	src := rng.New(2)
	for trial := 0; trial < 8; trial++ {
		g := gen.GNP(10, 0.35, src)
		b := make([]int, g.N())
		for i := range b {
			b[i] = 1 + src.Intn(3)
		}
		full, _, _, err := Fractional(g, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		cg, _, _, iters, err := FractionalCG(g, b, 1, 500)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(full-cg) > 1e-5*(1+full) {
			t.Fatalf("trial %d: full %v vs CG %v (%d iters)", trial, full, cg, iters)
		}
	}
}

func TestColumnGenerationKTolerant(t *testing.T) {
	g := gen.Complete(6)
	b := []int{2, 2, 2, 2, 2, 2}
	full, _, _, err := Fractional(g, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	cg, _, _, _, err := FractionalCG(g, b, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-cg) > 1e-6 {
		t.Fatalf("k=2: full %v vs CG %v", full, cg)
	}
}

func TestColumnGenerationScalesBeyondEnumeration(t *testing.T) {
	// n = 40 is far beyond what full minimal-DS enumeration handles; CG
	// must converge and respect the combinatorial bound.
	src := rng.New(3)
	g := gen.GNP(40, 0.2, src)
	b := make([]int, g.N())
	for i := range b {
		b[i] = 2
	}
	val, cols, durs, iters, err := FractionalCG(g, b, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=40: LP value %.3f with %d columns in %d iterations", val, len(cols), iters)
	// Combinatorial bound: min energy coverage.
	bound := math.Inf(1)
	for v := 0; v < g.N(); v++ {
		sum := b[v]
		for _, u := range g.Neighbors(v) {
			sum += b[u]
		}
		if f := float64(sum); f < bound {
			bound = f
		}
	}
	if val > bound+1e-6 {
		t.Fatalf("LP value %v exceeds energy-coverage bound %v", val, bound)
	}
	if val < float64(2) { // at least the trivial all-nodes schedule
		t.Fatalf("LP value %v below the trivial lifetime 2", val)
	}
	// The returned durations must form a feasible fractional schedule.
	usage := make([]float64, g.N())
	for j, col := range cols {
		for _, v := range col {
			usage[v] += durs[j]
		}
	}
	for v, u := range usage {
		if u > float64(b[v])+1e-6 {
			t.Fatalf("node %d fractional usage %v exceeds battery %d", v, u, b[v])
		}
	}
}

func TestColumnGenerationZeroBatteries(t *testing.T) {
	g := gen.Path(4)
	val, _, _, _, err := FractionalCG(g, []int{0, 0, 0, 0}, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if val != 0 {
		t.Fatalf("zero batteries gave value %v", val)
	}
}

func TestFractionalBoundFallsBack(t *testing.T) {
	// With a 1-iteration cap on a graph that needs more, FractionalBound
	// must fall back to the combinatorial bound rather than fail.
	g := gen.GNP(20, 0.3, rng.New(4))
	b := make([]int, g.N())
	for i := range b {
		b[i] = 2
	}
	got := FractionalBound(g, b, 1, 1)
	if got <= 0 {
		t.Fatalf("bound = %v", got)
	}
}
