package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// simpleGraph builds the graph of the given pairs, skipping self-loops and
// pairs already listed in either orientation.
func simpleGraph(n int, pairs [][2]int) *Graph {
	var edges [][2]int
	seen := make(map[uint64]bool)
	for _, e := range pairs {
		if key := packEdge(e[0], e[1]); e[0] != e[1] && !seen[key] {
			seen[key] = true
			edges = append(edges, e)
		}
	}
	return NewFromEdges(n, edges)
}

// fromPairs decodes each pair as the edge {p>>8 mod n, p&0xff mod n} and
// builds the simple graph of them.
func fromPairs(n int, pairs []uint16) *Graph {
	edges := make([][2]int, len(pairs))
	for i, p := range pairs {
		edges[i] = [2]int{int(p>>8) % n, int(p&0xff) % n}
	}
	return simpleGraph(n, edges)
}

// TestRandomEdgeInsertionInvariants: building an arbitrary simple edge set
// gives a valid graph, with degree sum equal to 2M.
func TestRandomEdgeInsertionInvariants(t *testing.T) {
	prop := func(pairs []uint16) bool {
		const n = 32
		g := fromPairs(n, pairs)
		if g.Validate() != nil {
			return false
		}
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTwoHopMinLowerBoundsProperty: δ²_v ≤ δ_v always, and
// min_v δ²_v == δ (the two-hop minimum can never undercut the global
// minimum by more than reaching it).
func TestTwoHopMinLowerBoundsProperty(t *testing.T) {
	prop := func(pairs []uint16) bool {
		const n = 24
		g := fromPairs(n, pairs)
		d2 := g.TwoHopMinDegree()
		min2 := d2[0]
		for v := 0; v < n; v++ {
			if d2[v] > g.Degree(v) {
				return false
			}
			if d2[v] < min2 {
				min2 = d2[v]
			}
		}
		return min2 == g.MinDegree()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBFSTriangleInequalityProperty: BFS distances satisfy
// |d(s,u) - d(s,v)| <= 1 across every edge {u,v}.
func TestBFSTriangleInequalityProperty(t *testing.T) {
	prop := func(pairs []uint16, srcBits uint8) bool {
		const n = 20
		g := fromPairs(n, pairs)
		dist := g.BFS(int(srcBits) % n)
		ok := true
		g.Edges(func(u, v int) {
			du, dv := dist[u], dist[v]
			if (du == -1) != (dv == -1) {
				ok = false
			} else if du != -1 && abs(du-dv) > 1 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestFromEdgesProperty: over random simple edge lists in random order and
// orientation, FromEdges builds a valid graph whose neighbor lists are the
// ones the test collects and sorts itself; corrupting the list with an
// out-of-range endpoint, a self-loop or a duplicate in either orientation is
// an error naming that edge, never a panic; and appending to one neighbor
// list leaves every other list intact, although they share one array.
func TestFromEdgesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(30)
		edges := randomEdgeList(n, r.Float64()*0.6, r)
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for i := range edges {
			if r.Intn(2) == 0 {
				edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			t.Fatalf("trial %d: valid list rejected: %v", trial, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := make([][]int32, n)
		for _, e := range edges {
			want[e[0]] = append(want[e[0]], int32(e[1]))
			want[e[1]] = append(want[e[1]], int32(e[0]))
		}
		for v := range want {
			slices.Sort(want[v])
			if got := g.Neighbors(v); !slices.Equal(got, want[v]) {
				t.Fatalf("trial %d: N(%d) = %v, want %v", trial, v, got, want[v])
			}
		}
		checkAppendIsolated(t, g)
		nodes := r.Perm(n)[:r.Intn(n+1)]
		sub, _ := g.InducedSubgraph(nodes)
		checkAppendIsolated(t, sub)

		bad := append([][2]int(nil), edges...)
		at := r.Intn(len(bad) + 1)
		var e [2]int
		switch r.Intn(4) {
		case 0:
			e = [2]int{r.Intn(n), n + r.Intn(3)}
		case 1:
			e = [2]int{-1 - r.Intn(3), r.Intn(n)}
		case 2:
			v := r.Intn(n)
			e = [2]int{v, v}
		default:
			if len(edges) == 0 {
				continue
			}
			e = edges[r.Intn(len(edges))]
			if r.Intn(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
			// A duplicate is named at its second listing.
			at = len(bad)
		}
		bad = append(bad[:at], append([][2]int{e}, bad[at:]...)...)
		if _, err := FromEdges(n, bad); err == nil {
			t.Fatalf("trial %d: corrupt edge %v at %d accepted", trial, e, at)
		} else if want := fmt.Sprintf("edge %d {%d,%d}", at, e[0], e[1]); !strings.Contains(err.Error(), want) {
			t.Fatalf("trial %d: err = %v, want it to name %q", trial, err, want)
		}
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Fatal("negative node count accepted")
	}
}

// checkAppendIsolated appends to every neighbor list of g in turn and checks
// that no other list changed: each list is cut from the shared array with
// its capacity capped, so an append must reallocate rather than overwrite
// the next node's neighbors.
func checkAppendIsolated(t *testing.T, g *Graph) {
	t.Helper()
	before := make([][]int32, g.N())
	for v := range before {
		before[v] = slices.Clone(g.Neighbors(v))
	}
	for v := range before {
		_ = append(g.Neighbors(v), -1)
	}
	for v := range before {
		if !slices.Equal(g.Neighbors(v), before[v]) {
			t.Fatalf("append to a neighbor list changed N(%d): %v -> %v", v, before[v], g.Neighbors(v))
		}
	}
}

// TestInducedSubgraphProperty: over random graphs and random node subsets in
// random order, InducedSubgraph returns a valid graph with the fingerprint of
// the graph built from the kept pairs, and orig equals the requested nodes.
func TestInducedSubgraphProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		g := NewFromEdges(n, randomEdgeList(n, r.Float64()*0.6, r))
		nodes := r.Perm(n)[:r.Intn(n+1)]
		sub, orig := g.InducedSubgraph(nodes)
		if err := sub.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var pairs [][2]int
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				if g.HasEdge(nodes[i], nodes[j]) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		if sub.Fingerprint() != NewFromEdges(len(nodes), pairs).Fingerprint() {
			t.Fatalf("trial %d: induced subgraph on %v differs from its pairs %v", trial, nodes, pairs)
		}
		if !slices.Equal(orig, nodes) {
			t.Fatalf("trial %d: orig = %v, want %v", trial, orig, nodes)
		}
	}

	g := NewFromEdges(400, randomEdgeList(400, 0.05, r))
	nodes := r.Perm(400)[:200]
	if allocs := testing.AllocsPerRun(20, func() { g.InducedSubgraph(nodes) }); allocs > 6 {
		t.Fatalf("InducedSubgraph on 200 nodes: %v allocations, want <= 6", allocs)
	}
}
