package gen

import (
	"encoding/hex"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func mustValidate(t *testing.T, g *graph.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
}

func TestGNP(t *testing.T) {
	src := rng.New(1)
	g := GNP(50, 0, src)
	if g.M() != 0 {
		t.Fatalf("G(50, 0) has %d edges", g.M())
	}
	g = GNP(50, 1, src)
	if g.M() != 50*49/2 {
		t.Fatalf("G(50, 1) has %d edges, want %d", g.M(), 50*49/2)
	}
	g = GNP(200, 0.1, src)
	mustValidate(t, g)
	// Expected edges = C(200,2)*0.1 = 1990; allow generous slack.
	if g.M() < 1500 || g.M() > 2500 {
		t.Errorf("G(200, 0.1) has %d edges, expected ~1990", g.M())
	}
}

func TestGNPBadProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p=1.5 did not panic")
		}
	}()
	GNP(10, 1.5, rng.New(1))
}

func TestRandomUDG(t *testing.T) {
	src := rng.New(2)
	g, pts := RandomUDG(300, 10, 1.2, src)
	mustValidate(t, g)
	if len(pts) != 300 || g.N() != 300 {
		t.Fatalf("sizes: %d points, %d nodes", len(pts), g.N())
	}
	// Every edge must respect the radius; spot-check all edges.
	g.Edges(func(u, v int) {
		if pts[u].Dist(pts[v]) > 1.2+1e-12 {
			t.Errorf("edge {%d,%d} at distance %v > radius", u, v, pts[u].Dist(pts[v]))
		}
	})
}

func TestUDGEmpty(t *testing.T) {
	g := UDG(nil, 1)
	if g.N() != 0 {
		t.Fatal("empty UDG not empty")
	}
}

func TestClusteredUDG(t *testing.T) {
	g, pts := ClusteredUDG(200, 4, 10, 0.4, 1.0, rng.New(3))
	mustValidate(t, g)
	if g.N() != 200 || len(pts) != 200 {
		t.Fatal("size mismatch")
	}
}

func TestStructuredFamilies(t *testing.T) {
	cases := []struct {
		name       string
		g          *graph.Graph
		n, m, d, D int
	}{
		{"path5", Path(5), 5, 4, 1, 2},
		{"ring6", Ring(6), 6, 6, 2, 2},
		{"star7", Star(7), 7, 6, 1, 6},
		{"k5", Complete(5), 5, 10, 4, 4},
		{"grid3x4", Grid(3, 4), 12, 17, 2, 4},
		{"torus3x3", Torus(3, 3), 9, 18, 4, 4},
		{"caterpillar3x2", Caterpillar(3, 2), 9, 8, 1, 4},
	}
	for _, c := range cases {
		mustValidate(t, c.g)
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
		if c.g.MinDegree() != c.d || c.g.MaxDegree() != c.D {
			t.Errorf("%s: δ=%d Δ=%d, want δ=%d Δ=%d", c.name, c.g.MinDegree(), c.g.MaxDegree(), c.d, c.D)
		}
	}
}

func TestRingSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ring(2) did not panic")
		}
	}()
	Ring(2)
}

func TestRandomTree(t *testing.T) {
	src := rng.New(4)
	for _, n := range []int{1, 2, 3, 10, 100} {
		g := RandomTree(n, src)
		mustValidate(t, g)
		if n > 0 && g.M() != n-1 {
			t.Fatalf("tree on %d nodes has %d edges", n, g.M())
		}
		if !g.Connected() {
			t.Fatalf("tree on %d nodes disconnected", n)
		}
	}
}

func isDominatingSet(g *graph.Graph, set []int) bool {
	in := make([]bool, g.N())
	for _, v := range set {
		in[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if in[v] {
			continue
		}
		ok := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func TestFujitaTrapStructure(t *testing.T) {
	for _, k := range []int{2, 3, 5, 8} {
		g, part := FujitaTrap(k)
		mustValidate(t, g)
		if g.N() != k*k+k+1 {
			t.Fatalf("k=%d: n=%d, want %d", k, g.N(), k*k+k+1)
		}
		if len(part) != k {
			t.Fatalf("k=%d: partition has %d sets", k, len(part))
		}
		used := make([]bool, g.N())
		for s, set := range part {
			if !isDominatingSet(g, set) {
				t.Fatalf("k=%d: planted set %d not dominating", k, s)
			}
			for _, v := range set {
				if used[v] {
					t.Fatalf("k=%d: node %d in two planted sets", k, v)
				}
				used[v] = true
			}
		}
		// δ must be k (so domatic number ≤ k+1, and the planted k is near-tight).
		if g.MinDegree() != k {
			t.Fatalf("k=%d: δ=%d, want %d", k, g.MinDegree(), k)
		}
	}
}

func TestFujitaTrapUniqueMinimumDSProperty(t *testing.T) {
	// The set of all a-nodes must dominate; the set of one-b-per-column must
	// leave z undominated (this is the property that defeats greedy).
	k := 4
	g, _ := FujitaTrap(k)
	as := make([]int, k)
	for i := range as {
		as[i] = 1 + i
	}
	if !isDominatingSet(g, as) {
		t.Fatal("a-set is not dominating")
	}
	diag := make([]int, k)
	for j := 0; j < k; j++ {
		diag[j] = 1 + k + j*k + j // b_{j,j}
	}
	if isDominatingSet(g, diag) {
		t.Fatal("b-only permutation should NOT dominate (z uncovered)")
	}
}

func TestFujitaTrapSmallKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=1 did not panic")
		}
	}()
	FujitaTrap(1)
}

func TestPlantedDomatic(t *testing.T) {
	src := rng.New(6)
	for _, c := range []struct{ n, d, extra int }{{12, 3, 0}, {40, 4, 20}, {60, 6, 0}, {10, 1, 5}} {
		g, classes := PlantedDomatic(c.n, c.d, c.extra, src)
		mustValidate(t, g)
		if len(classes) != c.d {
			t.Fatalf("got %d classes, want %d", len(classes), c.d)
		}
		seen := make([]bool, c.n)
		for i, cl := range classes {
			if !isDominatingSet(g, cl) {
				t.Fatalf("n=%d d=%d: class %d not dominating", c.n, c.d, i)
			}
			for _, v := range cl {
				if seen[v] {
					t.Fatalf("node %d in two classes", v)
				}
				seen[v] = true
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("node %d in no class", v)
			}
		}
	}
}

func TestPlantedDomaticBadArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n not divisible by d did not panic")
		}
	}()
	PlantedDomatic(10, 3, 0, rng.New(1))
}

func TestGeneratorsDeterministic(t *testing.T) {
	g1 := GNP(100, 0.05, rng.New(42))
	g2 := GNP(100, 0.05, rng.New(42))
	if g1.M() != g2.M() {
		t.Fatal("GNP not reproducible")
	}
	equal := true
	g1.Edges(func(u, v int) {
		if !g2.HasEdge(u, v) {
			equal = false
		}
	})
	if !equal {
		t.Fatal("GNP edge sets differ for identical seeds")
	}
}

// TestGeneratorsGolden pins one graph per family by size and fingerprint,
// each seeded generator drawing from a fresh rng.New(3). Experiments, the
// benchmark and the seed-pinned schedule tests all consume these graphs, so a
// change to how a generator builds its graph must leave every row unchanged.
func TestGeneratorsGolden(t *testing.T) {
	src := func() *rng.Source { return rng.New(3) }
	first := func(g *graph.Graph, _ ...any) *graph.Graph { return g }
	cases := []struct {
		name string
		g    *graph.Graph
		n, m int
		fp   string
	}{
		{"GNP(60, 0.1)", GNP(60, 0.1, src()), 60, 163, "df136b19493238be79453905f6b43610f891292f772c8b43e5f4cf5b38c04654"},
		{"RandomUDG(80, 1, 0.2)", first(RandomUDG(80, 1, 0.2, src())), 80, 355, "de3824a04968253a4ee219013de6a3497883251da9d91a5d352abed6f3b5e9f4"},
		{"HeterogeneousUDG(80, 1, 0.1, 0.3)", first(HeterogeneousUDG(80, 1, 0.1, 0.3, src())), 80, 240, "c19c8aecd907974839ae67b3a7aa19dd0473f59387dbf49e9736ca9838b14277"},
		{"ClusteredUDG(80, 3, 1, 0.1, 0.2)", first(ClusteredUDG(80, 3, 1, 0.1, 0.2, src())), 80, 1380, "4dc4998dca87de84461a87f834f4d4906ea4105fb459c8a3772b3223c1f24474"},
		{"RandomTree(50)", RandomTree(50, src()), 50, 49, "18254d204681e9864c3a597d92882b2a69508862b02a8572011b3ca259185b64"},
		{"PlantedDomatic(60, 5, 30)", first(PlantedDomatic(60, 5, 30, src())), 60, 253, "52733530f37b6aaa7958a6fe52f14101d59dee81e8e32ed543b6767ccd865aa6"},
		{"FujitaTrap(4)", first(FujitaTrap(4)), 21, 44, "b3a4c2cd1e64bb32619dc59e93d9bbf7520efc13d6d297dff755067f36d9c98d"},
		{"Path(7)", Path(7), 7, 6, "7100dc56a599324e363e079b111bf6b1159c0ebd990e38de4feb9d9b122adc17"},
		{"Ring(7)", Ring(7), 7, 7, "e17f0a6f658445eabc139d311b727112b06dec2277c7e81c2901985b37ba3d73"},
		{"Star(7)", Star(7), 7, 6, "eb8871edf48b5139ef0a2f6be5f6ee37dccac67c42ea0a0fced234a80249c8f3"},
		{"Complete(6)", Complete(6), 6, 15, "3f25b975bdc059072882870b07c166c28a1638faa5eed3ab88f02d7504cd539c"},
		{"Grid(3, 4)", Grid(3, 4), 12, 17, "260220079d7fe4e51423f997f3e97efe4d442742153f618df682b37d6805c544"},
		{"Torus(3, 5)", Torus(3, 5), 15, 30, "fc1c15c78f457e51f5b04e2cafb2daec1447454ba2928cb8b51bbff8b348f6a1"},
		{"Hypercube(4)", Hypercube(4), 16, 32, "7c78c00718cb9a3bc28e932c15609c272ffef11c47858f12753f1f7a091f01d4"},
		{"CompleteBipartite(3, 4)", CompleteBipartite(3, 4), 7, 12, "d9063ec073a16e92f792b9821162e3ae5b0c140a57a4eb0fcaae227689e73a74"},
		{"Circulant(12, 4)", Circulant(12, 4), 12, 24, "74eb033d023746ab21e868218f9f51022653fb5cce3c37c43f4d76282d675df6"},
		{"Caterpillar(5, 2)", Caterpillar(5, 2), 15, 14, "929bb928e0ffe98fe6dc9bc0214bf9fe7db71bb1d6d35716cf13b9d5a58cfcad"},
	}
	for _, c := range cases {
		mustValidate(t, c.g)
		fp := c.g.Fingerprint()
		if got := hex.EncodeToString(fp[:]); c.g.N() != c.n || c.g.M() != c.m || got != c.fp {
			t.Errorf("%s: n=%d m=%d fingerprint %s, want n=%d m=%d %s", c.name, c.g.N(), c.g.M(), got, c.n, c.m, c.fp)
		}
	}
}
