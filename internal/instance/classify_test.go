package instance

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// relabel returns an isomorphic copy of g with node ids permuted by perm
// (perm[old] = new).
func relabel(g *graph.Graph, perm []int) *graph.Graph {
	var edges [][2]int
	g.Edges(func(u, v int) {
		edges = append(edges, [2]int{perm[u], perm[v]})
	})
	return graph.NewFromEdges(g.N(), edges)
}

func TestClassifyGrid(t *testing.T) {
	for _, d := range []struct{ rows, cols int }{
		{2, 2}, {2, 3}, {2, 7}, {3, 3}, {3, 5}, {4, 4}, {5, 8}, {7, 7}, {10, 4}, {12, 17},
	} {
		g := gen.Grid(d.rows, d.cols)
		m := Classify(g, Hint{})
		if m.Class != Grid {
			t.Fatalf("%dx%d grid classified as %v", d.rows, d.cols, m.Class)
		}
		if m.Rows*m.Cols != d.rows*d.cols || m.Rows+m.Cols != d.rows+d.cols {
			t.Fatalf("%dx%d grid reported as %dx%d", d.rows, d.cols, m.Rows, m.Cols)
		}
		if len(m.Coords) != g.N() {
			t.Fatalf("%dx%d grid: %d coords for %d nodes", d.rows, d.cols, len(m.Coords), g.N())
		}
	}
}

func TestClassifyTorus(t *testing.T) {
	for _, d := range []struct{ rows, cols int }{
		{3, 3}, {3, 4}, {3, 5}, {4, 4}, {4, 6}, {5, 5}, {5, 10}, {6, 7},
	} {
		g := gen.Torus(d.rows, d.cols)
		m := Classify(g, Hint{})
		if m.Class != Torus {
			t.Fatalf("%dx%d torus classified as %v", d.rows, d.cols, m.Class)
		}
		if m.Rows*m.Cols != d.rows*d.cols {
			t.Fatalf("%dx%d torus reported as %dx%d", d.rows, d.cols, m.Rows, m.Cols)
		}
	}
}

// TestClassifyRelabelInvariant: classification is a graph property, so an
// arbitrary relabeling of the node ids must not change the Class or the
// dimension multiset.
func TestClassifyRelabelInvariant(t *testing.T) {
	src := rng.New(7)
	graphs := map[string]*graph.Graph{
		"grid5x8":  gen.Grid(5, 8),
		"grid2x9":  gen.Grid(2, 9),
		"torus4x5": gen.Torus(4, 5),
		"torus3x6": gen.Torus(3, 6),
		"tree":     gen.RandomTree(40, src.Split()),
		"gnp":      gen.GNP(60, 0.12, src.Split()),
		"ring":     gen.Ring(30),
	}
	for name, g := range graphs {
		want := Classify(g, Hint{})
		for trial := 0; trial < 5; trial++ {
			perm := src.Perm(g.N())
			got := Classify(relabel(g, perm), Hint{})
			if got.Class != want.Class {
				t.Fatalf("%s trial %d: class %v after relabel, want %v", name, trial, got.Class, want.Class)
			}
			if got.Rows*got.Cols != want.Rows*want.Cols || got.Rows+got.Cols != want.Rows+want.Cols {
				t.Fatalf("%s trial %d: dims %dx%d after relabel, want %dx%d",
					name, trial, got.Rows, got.Cols, want.Rows, want.Cols)
			}
		}
	}
}

// TestClassifyGNPNeverGrid is the false-positive property test: across
// many seeded GNP draws (including sizes that factor like plausible
// grids), none may classify as Grid or Torus.
func TestClassifyGNPNeverGrid(t *testing.T) {
	src := rng.New(11)
	for _, n := range []int{16, 20, 25, 36, 40, 49, 64} {
		for _, p := range []float64{0.05, 0.1, 0.2, 0.4} {
			for trial := 0; trial < 10; trial++ {
				g := gen.GNP(n, p, src.Split())
				m := Classify(g, Hint{})
				if m.Class == Grid || m.Class == Torus {
					t.Fatalf("GNP(n=%d, p=%.2f) trial %d classified as %v", n, p, trial, m.Class)
				}
			}
		}
	}
}

// TestClassifyHintedLieDegrades: a wrong hint must not flip the verified
// class — hints order trials, verification decides.
func TestClassifyHintedLieDegrades(t *testing.T) {
	src := rng.New(3)
	g := gen.GNP(25, 0.3, src)
	if m := Classify(g, Hint{Family: "grid", Rows: 5, Cols: 5}); m.Class == Grid || m.Class == Torus {
		t.Fatalf("GNP with a lying grid hint classified as %v", m.Class)
	}
	grid := gen.Grid(4, 6)
	if m := Classify(grid, Hint{Family: "torus", Rows: 4, Cols: 6}); m.Class != Grid {
		t.Fatalf("grid with a lying torus hint classified as %v", m.Class)
	}
}

// TestClassifyGenCorpus sweeps the generator families and pins exactly
// which ones may come back Grid/Torus: only the actual grid and torus
// generators (plus their isomorphs — Ring(4) is the 2x2 grid, and
// circulant/complete shapes that happen to be tori are checked by
// verification, not by name).
func TestClassifyGenCorpus(t *testing.T) {
	src := rng.New(5)
	cases := []struct {
		name      string
		g         *graph.Graph
		wantClass Class
	}{
		{"gnp", gen.GNP(50, 0.15, src.Split()), Generic},
		{"path", gen.Path(20), Tree},
		{"star", gen.Star(20), Tree},
		{"tree", gen.RandomTree(30, src.Split()), Tree},
		{"caterpillar", gen.Caterpillar(10, 3), Tree},
		{"ring", gen.Ring(12), Generic},
		{"complete", gen.Complete(8), Generic},
		{"circulant", gen.Circulant(16, 6), Generic},
		{"grid", gen.Grid(6, 9), Grid},
		{"torus", gen.Torus(5, 6), Torus},
		{"grid1xn", gen.Grid(1, 9), Tree}, // a path, honestly
	}
	for _, c := range cases {
		if m := Classify(c.g, Hint{}); m.Class != c.wantClass {
			t.Errorf("%s: classified %v, want %v", c.name, m.Class, c.wantClass)
		}
	}
	udg, _ := gen.RandomUDG(80, 9, 1.6, src.Split())
	if m := Classify(udg, Hint{}); m.Class == Grid || m.Class == Torus {
		t.Errorf("random UDG classified as %v", m.Class)
	}
}

func TestHintRoundTrip(t *testing.T) {
	for _, h := range []Hint{
		{Family: "grid", Rows: 8, Cols: 9},
		{Family: "torus", Rows: 5, Cols: 5},
		{},
	} {
		got := ParseHint(h.String())
		if got != h {
			t.Errorf("round trip %q: got %+v, want %+v", h.String(), got, h)
		}
	}
	if h := ParseHint("grid x y"); h.Family != "grid" || h.Rows != 0 {
		t.Errorf("malformed dims should parse as dimensionless grid hint, got %+v", h)
	}
	for _, s := range []string{"wobble 3", "udg"} {
		if h := ParseHint(s); h != (Hint{}) {
			t.Errorf("unknown hint %q should be zero, got %+v", s, h)
		}
	}
}

func TestCoordsConsistent(t *testing.T) {
	// The certified embedding must map to distinct cells whose induced
	// adjacency is exactly the grid's.
	g := relabel(gen.Grid(6, 7), rng.New(9).Perm(42))
	m := Classify(g, Hint{})
	if m.Class != Grid {
		t.Fatalf("relabeled 6x7 grid classified as %v", m.Class)
	}
	seen := map[int32]bool{}
	for v, p := range m.Coords {
		if p < 0 || int(p) >= m.Rows*m.Cols || seen[p] {
			t.Fatalf("node %d: bad or duplicate coord %d", v, p)
		}
		seen[p] = true
	}
}

func ExampleClassify() {
	m := Classify(gen.Grid(8, 12), Hint{})
	fmt.Printf("%v %dx%d\n", m.Class, m.Rows, m.Cols)
	// Output: grid 8x12
}

// BenchmarkClassify times the classifier on relabeled lattices, where the
// embedding fill and its certificate run in full, and on a UDG, which the
// degree gate turns away after the connectivity pass.
func BenchmarkClassify(b *testing.B) {
	src := rng.New(13)
	lattice := func(g *graph.Graph) *graph.Graph { return relabel(g, src.Perm(g.N())) }
	udg, _ := gen.RandomUDG(1024, 1, 0.08, src.Split())
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid50x50", lattice(gen.Grid(50, 50))},
		{"grid40x90", lattice(gen.Grid(40, 90))},
		{"torus30x40", lattice(gen.Torus(30, 40))},
		{"udg1024", udg},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Classify(c.g, Hint{})
			}
		})
	}
}
