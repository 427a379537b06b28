package exact

import (
	"math"
	"testing"

	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestMinimalDominatingSetsPath3(t *testing.T) {
	// P3 = 0-1-2. Minimal dominating sets: {1}, {0,2}.
	sets := MinimalDominatingSets(gen.Path(3), 1)
	if len(sets) != 2 {
		t.Fatalf("sets = %v, want 2 sets", sets)
	}
	if len(sets[0]) != 2 || sets[0][0] != 0 || sets[0][1] != 2 {
		t.Errorf("sets = %v, want [[0 2] [1]]", sets)
	}
	if len(sets[1]) != 1 || sets[1][0] != 1 {
		t.Errorf("sets = %v, want [[0 2] [1]]", sets)
	}
}

func TestMinimalDominatingSetsCompleteGraph(t *testing.T) {
	// Every singleton of K4 is a minimal dominating set; nothing else is
	// minimal.
	sets := MinimalDominatingSets(gen.Complete(4), 1)
	if len(sets) != 4 {
		t.Fatalf("K4 has %d minimal DS, want 4: %v", len(sets), sets)
	}
	for _, s := range sets {
		if len(s) != 1 {
			t.Fatalf("non-singleton minimal set %v in K4", s)
		}
	}
}

func TestMinimalDominatingSetsAllMinimalAndDominating(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 10; trial++ {
		g := gen.GNP(10, 0.3, src)
		sets := MinimalDominatingSets(g, 1)
		if len(sets) == 0 {
			t.Fatal("every graph has at least one minimal dominating set")
		}
		seen := map[string]bool{}
		for _, s := range sets {
			if !domset.IsDominating(g, s, nil) {
				t.Fatalf("trial %d: %v not dominating", trial, s)
			}
			// Minimality: removing any element breaks domination.
			for i := range s {
				reduced := append(append([]int(nil), s[:i]...), s[i+1:]...)
				if domset.IsDominating(g, reduced, nil) {
					t.Fatalf("trial %d: %v not minimal (drop %d)", trial, s, s[i])
				}
			}
			key := ""
			for _, v := range s {
				key += string(rune('a'+v)) + ","
			}
			if seen[key] {
				t.Fatalf("trial %d: duplicate set %v", trial, s)
			}
			seen[key] = true
		}
	}
}

func TestMinimalDominatingSetsExhaustive(t *testing.T) {
	// Cross-check against brute-force subset enumeration on tiny graphs.
	src := rng.New(2)
	for trial := 0; trial < 8; trial++ {
		g := gen.GNP(8, 0.35, src)
		want := bruteMinimalSets(g, 1)
		got := MinimalDominatingSets(g, 1)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d minimal sets, brute force says %d", trial, len(got), len(want))
		}
	}
}

func TestMinimalKDominatingSets(t *testing.T) {
	g := gen.Complete(4)
	sets := MinimalDominatingSets(g, 2)
	// Minimal 2-dominating sets of K4 are exactly the 6 pairs.
	if len(sets) != 6 {
		t.Fatalf("K4 2-dominating minimal sets = %v, want all 6 pairs", sets)
	}
	for _, s := range sets {
		if !domset.IsKDominating(g, s, 2, nil) {
			t.Fatalf("%v not 2-dominating", s)
		}
	}
}

func TestMinimalDominatingSetsInfeasibleK(t *testing.T) {
	if sets := MinimalDominatingSets(gen.Path(4), 3); sets != nil {
		t.Fatalf("3-domination of P4 should be infeasible, got %v", sets)
	}
}

// bruteMinimalSets enumerates all subsets (n <= ~16) and keeps minimal
// k-dominating ones.
func bruteMinimalSets(g *graph.Graph, k int) [][]int {
	n := g.N()
	var out [][]int
	for mask := 0; mask < 1<<n; mask++ {
		var set []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, v)
			}
		}
		if !domset.IsKDominating(g, set, k, nil) {
			continue
		}
		minimal := true
		for i := range set {
			reduced := append(append([]int(nil), set[:i]...), set[i+1:]...)
			if domset.IsKDominating(g, reduced, k, nil) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, set)
		}
	}
	return out
}

// figure1 reconstructs the instance of the paper's Figure 1: 7 nodes,
// non-uniform batteries, optimal lifetime exactly 6, and the optimum is
// achieved by a (2-node, 2 slots), (3-node, 1 slot), (2-node, 3 slots)
// phase structure. Node 6 plays the role of the node that cannot be covered
// after time 6: its closed neighborhood {4, 5, 6} carries exactly 6 units.
func figure1() (*graph.Graph, []int) {
	g := graph.NewFromEdges(7, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {3, 4}, {4, 5}, {4, 6}, {5, 6}})
	b := []int{3, 2, 1, 1, 2, 3, 1}
	return g, b
}

func TestFigure1IntegralOptimumIsSix(t *testing.T) {
	g, b := figure1()
	val, sets, durs := Integral(g, b, 1)
	if val != 6 {
		t.Fatalf("integral optimum = %d, want 6", val)
	}
	// Returned schedule must be feasible: per-node usage within battery.
	used := make([]int, g.N())
	for i, set := range sets {
		if !domset.IsDominating(g, set, nil) {
			t.Fatalf("schedule set %v not dominating", set)
		}
		for _, v := range set {
			used[v] += durs[i]
		}
	}
	for v, u := range used {
		if u > b[v] {
			t.Fatalf("node %d used %d > battery %d", v, u, b[v])
		}
	}
}

func TestFigure1FractionalMatchesIntegral(t *testing.T) {
	g, b := figure1()
	val, _, _, err := Fractional(g, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-6) > 1e-6 {
		t.Fatalf("fractional optimum = %v, want 6", val)
	}
}

func TestFigure1BindingNeighborhood(t *testing.T) {
	g, b := figure1()
	// Lemma 5.1: L_OPT <= min_u Σ_{N+[u]} b = 6, attained at node 6.
	min := -1
	for v := 0; v < g.N(); v++ {
		sum := b[v]
		for _, u := range g.Neighbors(v) {
			sum += b[u]
		}
		if min == -1 || sum < min {
			min = sum
		}
	}
	if min != 6 {
		t.Fatalf("minimum energy coverage = %d, want 6", min)
	}
}

func TestIntegralUniformPath(t *testing.T) {
	// P3 with b=2 everywhere: {1} twice and {0,2} twice → lifetime 4.
	g := gen.Path(3)
	val, _, _ := Integral(g, []int{2, 2, 2}, 1)
	if val != 4 {
		t.Fatalf("P3 uniform b=2 optimum = %d, want 4", val)
	}
}

func TestIntegralZeroBatteries(t *testing.T) {
	g := gen.Path(3)
	val, sets, _ := Integral(g, []int{0, 0, 0}, 1)
	if val != 0 || sets != nil {
		t.Fatalf("zero batteries yield lifetime %d (%v), want 0", val, sets)
	}
}

func TestIntegralCompleteGraphUniform(t *testing.T) {
	// K4 with b=1: each singleton for 1 slot → lifetime 4 = b(δ+1).
	val, _, _ := Integral(gen.Complete(4), []int{1, 1, 1, 1}, 1)
	if val != 4 {
		t.Fatalf("K4 b=1 optimum = %d, want 4", val)
	}
}

func TestIntegralKToleranceHalvesCompleteGraph(t *testing.T) {
	// K4, b=1, k=2: pairs for 1 slot each, two disjoint pairs → lifetime 2.
	val, _, _ := Integral(gen.Complete(4), []int{1, 1, 1, 1}, 2)
	if val != 2 {
		t.Fatalf("K4 b=1 k=2 optimum = %d, want 2", val)
	}
}

func TestFractionalAtLeastIntegral(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 6; trial++ {
		g := gen.GNP(9, 0.4, src)
		b := make([]int, g.N())
		for i := range b {
			b[i] = 1 + src.Intn(3)
		}
		iv, _, _ := Integral(g, b, 1)
		fv, _, _, err := Fractional(g, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if fv < float64(iv)-1e-6 {
			t.Fatalf("trial %d: fractional %v < integral %d", trial, fv, iv)
		}
	}
}

func TestIntegralRespectsLemma51Bound(t *testing.T) {
	src := rng.New(4)
	for trial := 0; trial < 6; trial++ {
		g := gen.GNP(9, 0.4, src)
		b := make([]int, g.N())
		for i := range b {
			b[i] = 1 + src.Intn(4)
		}
		val, _, _ := Integral(g, b, 1)
		bound := math.MaxInt
		for v := 0; v < g.N(); v++ {
			sum := b[v]
			for _, u := range g.Neighbors(v) {
				sum += b[u]
			}
			if sum < bound {
				bound = sum
			}
		}
		if val > bound {
			t.Fatalf("trial %d: optimum %d exceeds Lemma 5.1 bound %d", trial, val, bound)
		}
	}
}

func TestFractionalBatteryMismatch(t *testing.T) {
	if _, _, _, err := Fractional(gen.Path(3), []int{1}, 1); err == nil {
		t.Fatal("battery length mismatch accepted")
	}
}

func TestFractionalNegativeBattery(t *testing.T) {
	if _, _, _, err := Fractional(gen.Path(3), []int{1, -1, 1}, 1); err == nil {
		t.Fatal("negative battery accepted")
	}
}
