package graph

import (
	"strings"
	"testing"
)

// path returns the path graph P_n: 0-1-2-…-(n-1).
func path(n int) *Graph {
	return NewFromEdges(n, pathEdges(n))
}

func pathEdges(n int) [][2]int {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return edges
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph reports n=%d m=%d", g.N(), g.M())
	}
	if g.MinDegree() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph degree stats non-zero")
	}
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdgeBasics(t *testing.T) {
	g := NewFromEdges(4, [][2]int{{0, 1}, {2, 1}, {3, 0}})
	if g.M() != 3 {
		t.Fatalf("m = %d, want 3", g.M())
	}
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {0, 3}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if g.HasEdge(2, 3) {
		t.Error("phantom edge {2,3}")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewFromEdges(5, [][2]int{{2, 4}, {2, 0}, {2, 3}, {2, 1}})
	nbrs := g.Neighbors(2)
	want := []int32{0, 1, 3, 4}
	if len(nbrs) != len(want) {
		t.Fatalf("neighbors = %v", nbrs)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", nbrs, want)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := path(4) // degrees 1,2,2,1
	if d := g.Degree(0); d != 1 {
		t.Errorf("deg(0) = %d", d)
	}
	if d := g.Degree(1); d != 2 {
		t.Errorf("deg(1) = %d", d)
	}
	if g.MinDegree() != 1 || g.MaxDegree() != 2 {
		t.Errorf("δ=%d Δ=%d, want 1, 2", g.MinDegree(), g.MaxDegree())
	}
}

func TestTwoHopMinDegree(t *testing.T) {
	// Star K_{1,3}: center 0 has degree 3, leaves degree 1.
	g := NewFromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	d2 := g.TwoHopMinDegree()
	// Center: min(3, 1,1,1) = 1. Leaf: min(1, 3) = 1.
	for v, d := range d2 {
		if d != 1 {
			t.Errorf("δ²(%d) = %d, want 1", v, d)
		}
	}
	// Path 0-1-2-3-4: δ² of middle node 2 is min(2,2,2)=2.
	p := path(5)
	d2 = p.TwoHopMinDegree()
	if d2[2] != 2 {
		t.Errorf("path δ²(2) = %d, want 2", d2[2])
	}
	if d2[1] != 1 { // neighbor 0 has degree 1
		t.Errorf("path δ²(1) = %d, want 1", d2[1])
	}
}

func TestClosedNeighborhood(t *testing.T) {
	g := NewFromEdges(5, [][2]int{{2, 0}, {2, 4}})
	got := g.ClosedNeighborhood(2)
	want := []int32{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("N+[2] = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("N+[2] = %v, want %v", got, want)
		}
	}
	// Isolated node: just itself.
	if nb := g.ClosedNeighborhood(1); len(nb) != 1 || nb[0] != 1 {
		t.Fatalf("N+[1] = %v, want [1]", nb)
	}
	// Node larger than all neighbors.
	if nb := g.ClosedNeighborhood(4); len(nb) != 2 || nb[0] != 2 || nb[1] != 4 {
		t.Fatalf("N+[4] = %v, want [2 4]", nb)
	}
}

func TestBFSAndConnectivity(t *testing.T) {
	g := path(4)
	dist := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if !g.Connected() {
		t.Error("path should be connected")
	}
	g2 := NewFromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if g2.Connected() {
		t.Error("two components reported connected")
	}
	d := g2.BFS(0)
	if d[2] != -1 || d[3] != -1 {
		t.Errorf("unreachable distances = %v", d)
	}
}

func TestComponents(t *testing.T) {
	g := NewFromEdges(6, [][2]int{{0, 1}, {1, 2}, {4, 5}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || len(comps[1]) != 1 || len(comps[2]) != 2 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
	if comps[1][0] != 3 {
		t.Fatalf("singleton component should be {3}: %v", comps[1])
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := NewFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	sub, orig := g.InducedSubgraph([]int{0, 1, 4})
	if sub.N() != 3 {
		t.Fatalf("sub n = %d", sub.N())
	}
	if sub.M() != 2 { // edges {0,1} and {0,4}
		t.Fatalf("sub m = %d, want 2", sub.M())
	}
	if orig[0] != 0 || orig[1] != 1 || orig[2] != 4 {
		t.Fatalf("orig mapping = %v", orig)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	g.InducedSubgraph([]int{3, 1, 3})
}

func TestEdgesIteration(t *testing.T) {
	g := path(4)
	var got [][2]int
	g.Edges(func(u, v int) { got = append(got, [2]int{u, v}) })
	if len(got) != 3 {
		t.Fatalf("edges = %v", got)
	}
	for _, e := range got {
		if e[0] >= e[1] {
			t.Errorf("edge %v not ordered u < v", e)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := NewFromEdges(6, append(pathEdges(6), [2]int{0, 5}))
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	h, _, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", h.N(), h.M(), g.N(), g.M())
	}
	g.Edges(func(u, v int) {
		if !h.HasEdge(u, v) {
			t.Errorf("round trip lost edge {%d,%d}", u, v)
		}
	})
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"missing header":    "0 1\n",
		"no header at all":  "# only comments\n",
		"self loop":         "n 3\n1 1\n",
		"duplicate":         "n 3\n0 1\n1 0\n",
		"out of range":      "n 2\n0 5\n",
		"malformed":         "n 2\n0 1 2\n",
		"bad count":         "n -3\n",
		"duplicate header":  "n 2\nn 2\n",
		"non-numeric point": "n 2\na b\n",
	}
	for name, input := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected parse error for %q", name, input)
		}
	}
	// Edges are validated by FromEdges after the scan; the error still
	// names the offending edge's source line.
	if _, _, err := ReadEdgeList(strings.NewReader("n 3\n0 1\n# c\n1 0\n")); err == nil ||
		!strings.Contains(err.Error(), "line 4: edge {1,0}: duplicate edge") {
		t.Errorf("duplicate edge: err = %v, want it to name line 4", err)
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nn 3\n# another\n0 2\n\n1 2\n"
	g, _, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed n=%d m=%d", g.N(), g.M())
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := path(3)
	// Corrupt adjacency directly: make it asymmetric.
	g.adj[0] = append(g.adj[0], 2)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric adjacency")
	}
}

func TestNewFromEdgesRejectsSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop accepted")
		}
	}()
	NewFromEdges(3, [][2]int{{1, 1}})
}

func TestNewFromEdgesRejectsDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate accepted")
		}
	}()
	NewFromEdges(3, [][2]int{{0, 1}, {1, 0}})
}

func TestNewFromEdgesEmpty(t *testing.T) {
	g := NewFromEdges(4, nil)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("empty build: %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummary(t *testing.T) {
	g := path(3)
	if got := g.String(); got != "graph{n=3 m=2 δ=1 Δ=2}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestOutOfRangePanics(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.HasEdge(0, 5) },
		func() { g.Neighbors(-1) },
		func() { g.Degree(7) },
		func() { g.BFS(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}
