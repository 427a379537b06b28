package graph

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// buildRandom returns a random simple graph on n nodes with roughly m edges.
func buildRandom(n, m int, src *rng.Source) *Graph {
	pairs := make([][2]int, m)
	for i := range pairs {
		pairs[i] = [2]int{src.Intn(n), src.Intn(n)}
	}
	return simpleGraph(n, pairs)
}

// shadow is an independent model of the delta semantics: a node count plus a
// packed edge set, mutated by plain map operations rather than through the
// graph layer. The property test checks Delta.Apply against it.
type shadow struct {
	n     int
	edges map[uint64]bool
}

func shadowOf(g *Graph) *shadow {
	s := &shadow{n: g.N(), edges: make(map[uint64]bool, g.M())}
	g.Edges(func(u, v int) { s.edges[packEdge(u, v)] = true })
	return s
}

// apply mutates the shadow by the delta's documented semantics, implemented
// from the spec rather than sharing code with Delta.Apply.
func (s *shadow) apply(d Delta) {
	for _, e := range d.RemoveEdges {
		delete(s.edges, packEdge(e[0], e[1]))
	}
	removed := make(map[int]bool, len(d.RemoveNodes))
	for _, v := range d.RemoveNodes {
		removed[v] = true
	}
	mapping := make([]int, s.n)
	next := 0
	for v := 0; v < s.n; v++ {
		if removed[v] {
			mapping[v] = -1
			continue
		}
		mapping[v] = next
		next++
	}
	moved := make(map[uint64]bool, len(s.edges))
	for key := range s.edges {
		u, v := int(key>>32), int(key&0xffffffff)
		if removed[u] || removed[v] {
			continue
		}
		moved[packEdge(mapping[u], mapping[v])] = true
	}
	s.edges = moved
	s.n = next + d.AddNodes
	for _, e := range d.AddEdges {
		s.edges[packEdge(e[0], e[1])] = true
	}
}

// graph rebuilds a Graph from scratch out of the shadow state.
func (s *shadow) graph() *Graph {
	edges := make([][2]int, 0, len(s.edges))
	for key := range s.edges {
		edges = append(edges, [2]int{int(key >> 32), int(key & 0xffffffff)})
	}
	return NewFromEdges(s.n, edges)
}

// randomDelta draws a valid delta against g: edge and node removals sampled
// from the live structure, added nodes wired to random survivors, and edges
// between non-adjacent survivors, which land in the middle of carried lists.
func randomDelta(g *Graph, src *rng.Source) Delta {
	var d Delta
	n := g.N()

	var all [][2]int
	g.Edges(func(u, v int) { all = append(all, [2]int{u, v}) })
	for _, i := range src.Perm(len(all)) {
		if len(d.RemoveEdges) >= 2 {
			break
		}
		d.RemoveEdges = append(d.RemoveEdges, all[i])
	}

	if n > 2 {
		for _, v := range src.Perm(n) {
			if len(d.RemoveNodes) >= 2 {
				break
			}
			d.RemoveNodes = append(d.RemoveNodes, v)
		}
	}
	survivors := n - len(d.RemoveNodes)

	d.AddNodes = src.Intn(3)
	for i := 0; i < d.AddNodes; i++ {
		d.NewBudgets = append(d.NewBudgets, src.Intn(5))
	}
	// Wire each added node to up to two distinct survivors: added nodes start
	// isolated, so these edges cannot collide with carried-over ones.
	for i := 0; i < d.AddNodes && survivors > 0; i++ {
		newID := survivors + i
		for _, t := range src.Perm(survivors)[:min(2, survivors)] {
			d.AddEdges = append(d.AddEdges, [2]int{t, newID})
		}
	}

	removed := make(map[int]bool, len(d.RemoveNodes))
	for _, v := range d.RemoveNodes {
		removed[v] = true
	}
	// Join up to three pairs of survivors that g does not join, in post-delta
	// IDs, in random orientation and at random places in the list.
	var kept []int // kept[i] is the survivor that gets post-delta ID i
	for v := 0; v < n; v++ {
		if !removed[v] {
			kept = append(kept, v)
		}
	}
	for tries, joined := 0, 0; tries < 20 && joined < 3 && len(kept) > 1; tries++ {
		i, j := src.Intn(len(kept)), src.Intn(len(kept))
		if i == j || g.HasEdge(kept[i], kept[j]) ||
			slices.Contains(d.AddEdges, [2]int{i, j}) || slices.Contains(d.AddEdges, [2]int{j, i}) {
			continue
		}
		d.AddEdges = slices.Insert(d.AddEdges, src.Intn(len(d.AddEdges)+1), [2]int{i, j})
		joined++
	}

	for _, v := range src.Perm(n) {
		if len(d.SetBudgets) >= 2 {
			break
		}
		if !removed[v] {
			d.SetBudgets = append(d.SetBudgets, BudgetUpdate{Node: v, Budget: src.Intn(9)})
		}
	}
	return d
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestDeltaFingerprintProperty is the randomized-sequence property test of
// the issue: after every delta in a random sequence, the applied graph's
// fingerprint must equal the fingerprint of a graph rebuilt from scratch out
// of an independently maintained model of the same mutations.
func TestDeltaFingerprintProperty(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 6 + src.Intn(20)
		g := buildRandom(n, 3*n, src)
		budgets := make([]int, g.N())
		for v := range budgets {
			budgets[v] = src.Intn(6)
		}
		sh := shadowOf(g)
		for step := 0; step < 5; step++ {
			d := randomDelta(g, src)
			g2, budgets2, mapping, err := d.Apply(g, budgets)
			if err != nil {
				t.Fatalf("trial %d step %d: Apply: %v (delta %+v)", trial, step, err, d)
			}
			if err := g2.Validate(); err != nil {
				t.Fatalf("trial %d step %d: invalid result graph: %v", trial, step, err)
			}
			checkAppendIsolated(t, g2)
			sh.apply(d)
			rebuilt := sh.graph()
			if g2.Fingerprint() != rebuilt.Fingerprint() {
				t.Fatalf("trial %d step %d: fingerprint mismatch: applied %v vs rebuilt %v",
					trial, step, g2, rebuilt)
			}
			if len(mapping) != g.N() || len(budgets2) != g2.N() {
				t.Fatalf("trial %d step %d: mapping len %d (want %d), budgets len %d (want %d)",
					trial, step, len(mapping), g.N(), len(budgets2), g2.N())
			}
			g, budgets = g2, budgets2
		}
	}
}

func TestDeltaApplySemantics(t *testing.T) {
	// Path 0-1-2-3 plus node 4 isolated.
	g := NewFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	budgets := []int{10, 11, 12, 13, 14}
	d := Delta{
		RemoveEdges: [][2]int{{1, 2}},
		RemoveNodes: []int{0},
		AddNodes:    2,
		NewBudgets:  []int{7, 8},
		// Post-delta IDs: survivors 1,2,3,4 → 0,1,2,3; added → 4,5.
		AddEdges:   [][2]int{{3, 4}, {4, 5}},
		SetBudgets: []BudgetUpdate{{Node: 3, Budget: 99}}, // pre-delta ID 3 → post-delta ID 2
	}
	g2, budgets2, mapping, err := d.Apply(g, budgets)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	wantMapping := []int{-1, 0, 1, 2, 3}
	for v, m := range mapping {
		if m != wantMapping[v] {
			t.Fatalf("mapping = %v, want %v", mapping, wantMapping)
		}
	}
	if g2.N() != 6 || g2.M() != 3 {
		t.Fatalf("got %v, want n=6 m=3", g2)
	}
	for _, e := range [][2]int{{1, 2}, {3, 4}, {4, 5}} { // old {2,3} edge is {1,2} now
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v in %v", e, g2)
		}
	}
	wantBudgets := []int{11, 12, 99, 14, 7, 8}
	for v, b := range budgets2 {
		if b != wantBudgets[v] {
			t.Fatalf("budgets2 = %v, want %v", budgets2, wantBudgets)
		}
	}
	// Inputs untouched.
	if g.N() != 5 || g.M() != 3 || budgets[3] != 13 {
		t.Fatalf("inputs mutated: %v %v", g, budgets)
	}
}

func TestDeltaApplyIdentity(t *testing.T) {
	g := buildRandom(12, 30, rng.New(3))
	budgets := make([]int, 12)
	g2, budgets2, mapping, err := Delta{}.Apply(g, budgets)
	if err != nil {
		t.Fatalf("identity Apply: %v", err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Fatal("identity delta changed the fingerprint")
	}
	for v, m := range mapping {
		if m != v {
			t.Fatalf("identity mapping[%d] = %d", v, m)
		}
	}
	if len(budgets2) != len(budgets) {
		t.Fatalf("identity budgets length %d", len(budgets2))
	}
}

// deltaErrorCases are deltas that Apply must reject against the path 0-1-2
// plus the isolated node 3 under unit budgets, each with a substring of the
// error it must return. FuzzDeltaApply seeds its corpus with them.
var deltaErrorCases = []struct {
	name string
	d    Delta
	want string
}{
	{"negative add_nodes", Delta{AddNodes: -1}, "add_nodes"},
	{"new_budgets length", Delta{AddNodes: 2, NewBudgets: []int{1}}, "new_budgets for"},
	{"negative new_budget", Delta{AddNodes: 1, NewBudgets: []int{-1}}, "new_budgets[0]"},
	{"remove node range", Delta{RemoveNodes: []int{4}}, "out of range"},
	{"remove node twice", Delta{RemoveNodes: []int{1, 1}}, "listed twice"},
	{"remove edge range", Delta{RemoveEdges: [][2]int{{0, 9}}}, "out of range"},
	{"remove edge loop", Delta{RemoveEdges: [][2]int{{2, 2}}}, "self-loop"},
	{"remove edge missing", Delta{RemoveEdges: [][2]int{{0, 3}}}, "does not exist"},
	{"remove edge twice", Delta{RemoveEdges: [][2]int{{0, 1}, {1, 0}}}, "listed twice"},
	{"add edge range", Delta{AddEdges: [][2]int{{0, 4}}}, "out of post-delta range"},
	{"add edge loop", Delta{AddEdges: [][2]int{{3, 3}}}, "self-loop"},
	{"add edge present", Delta{AddEdges: [][2]int{{0, 1}}}, "already present"},
	{"add edge twice", Delta{AddEdges: [][2]int{{0, 3}, {3, 0}}}, "already present"},
	// With several duplicates the first entry, in list order, that repeats a
	// carried edge or an earlier entry is named.
	{"add edges present twice", Delta{AddEdges: [][2]int{{1, 3}, {2, 1}, {0, 1}}},
		"add_edges[1]: edge {2,1} already present"},
	{"add edge repeated, then present", Delta{AddEdges: [][2]int{{3, 2}, {0, 3}, {2, 3}, {1, 0}}},
		"add_edges[2]: edge {2,3} already present"},
	// Range and self-loop checks cover the whole list before any duplicate.
	{"add edge present, then out of range", Delta{AddEdges: [][2]int{{0, 1}, {0, 9}}},
		"add_edges[1] {0,9}: endpoint out of post-delta range"},
	{"set budget range", Delta{SetBudgets: []BudgetUpdate{{Node: 7}}}, "out of range"},
	{"set budget removed", Delta{RemoveNodes: []int{2}, SetBudgets: []BudgetUpdate{{Node: 2}}}, "removed by this delta"},
	{"set budget twice", Delta{SetBudgets: []BudgetUpdate{{Node: 1, Budget: 2}, {Node: 1, Budget: 3}}}, "updated twice"},
	{"set budget negative", Delta{SetBudgets: []BudgetUpdate{{Node: 1, Budget: -2}}}, "must be >= 0"},
}

func TestDeltaApplyErrors(t *testing.T) {
	g := NewFromEdges(4, [][2]int{{0, 1}, {1, 2}})
	budgets := []int{1, 1, 1, 1}
	if _, _, _, err := (Delta{}).Apply(g, []int{1}); err == nil || !strings.Contains(err.Error(), "budgets for") {
		t.Errorf("budget length: err = %v, want substring %q", err, "budgets for")
	}
	for _, tc := range deltaErrorCases {
		_, _, _, err := tc.d.Apply(g, budgets)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, _, _, err := (Delta{}).Apply(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestDeltaHashInto(t *testing.T) {
	sum := func(d Delta) string { return d.HashInto(NewHasher()).Sum() }
	a := Delta{RemoveNodes: []int{1}, AddNodes: 2}
	if sum(a) != sum(a) {
		t.Fatal("HashInto not deterministic")
	}
	variants := []Delta{
		{},
		{RemoveNodes: []int{1}},
		{RemoveNodes: []int{1}, AddNodes: 2},
		{RemoveEdges: [][2]int{{0, 1}}},
		{AddEdges: [][2]int{{0, 1}}},
		{AddNodes: 2, NewBudgets: []int{1, 2}},
		{SetBudgets: []BudgetUpdate{{Node: 0, Budget: 1}}},
		{SetBudgets: []BudgetUpdate{{Node: 1, Budget: 0}}},
	}
	seen := map[string]int{}
	for i, d := range variants {
		s := sum(d)
		if j, dup := seen[s]; dup {
			t.Fatalf("variants %d and %d hash identically", i, j)
		}
		seen[s] = i
	}
}
