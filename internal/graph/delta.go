package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// BudgetUpdate revises the duty budget of one surviving node, addressed in
// the pre-delta ID space.
type BudgetUpdate struct {
	Node   int `json:"node"`
	Budget int `json:"budget"`
}

// Delta is a typed, serializable change to a deployed network: edges and
// nodes disappear, fresh nodes join, and duty budgets are revised. It is the
// wire format of the live-reconfiguration API (PATCH /v1/schedule in
// internal/serve) and the input of the transition planner (internal/reconfig),
// so unlike NewFromEdges it validates rather than panics — a Delta crosses
// the trust boundary.
//
// Apply performs the steps in a fixed order, and the ID spaces of the fields
// follow from it:
//
//  1. RemoveEdges (pre-delta IDs) are deleted;
//  2. RemoveNodes (pre-delta IDs) are deleted with their incident edges, and
//     the survivors are renumbered compactly in their original order;
//  3. AddNodes fresh isolated nodes are appended, taking the next IDs after
//     the survivors (a survivor's post-delta ID is its rank among survivors;
//     added node i gets ID survivors+i);
//  4. AddEdges (post-delta IDs) are inserted;
//  5. budgets carry over to survivors, added nodes get NewBudgets (zero when
//     omitted), then SetBudgets (pre-delta IDs) revises surviving nodes.
//
// The zero Delta is the identity: Apply returns a structural copy.
type Delta struct {
	// RemoveEdges lists undirected edges to delete, in pre-delta IDs. Every
	// listed edge must exist; listing one twice is an error.
	RemoveEdges EdgeList `json:"remove_edges,omitempty"`
	// RemoveNodes lists nodes to delete (with their incident edges), in
	// pre-delta IDs. Duplicates are an error.
	RemoveNodes []int `json:"remove_nodes,omitempty"`
	// AddNodes is the number of fresh nodes appended after the survivors.
	AddNodes int `json:"add_nodes,omitempty"`
	// NewBudgets, when non-empty, gives the initial budgets of the added
	// nodes (length must equal AddNodes). Empty means zero budgets.
	NewBudgets []int `json:"new_budgets,omitempty"`
	// AddEdges lists undirected edges to insert, in post-delta IDs (so added
	// nodes can be wired in). Self-loops, duplicates, and edges that already
	// exist are errors.
	AddEdges EdgeList `json:"add_edges,omitempty"`
	// SetBudgets revises the budgets of surviving nodes, addressed in
	// pre-delta IDs. Updating a removed node or the same node twice is an
	// error.
	SetBudgets []BudgetUpdate `json:"set_budgets,omitempty"`
}

// packEdge keys an undirected edge for duplicate detection (u < v after
// normalization; node IDs fit in 32 bits by construction of the graph layer).
func packEdge(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// Apply validates d against g and the pre-delta budget vector and returns the
// post-delta graph, the post-delta budget vector, and the old→new ID mapping
// (mapping[v] is v's post-delta ID, or -1 when v was removed). g and budgets
// are never mutated; on error all three results are nil. When several
// add_edges entries repeat a carried edge or an earlier entry, the error
// names the first of them in list order.
//
// Apply relabels g instead of rebuilding it from an edge list (see
// relabel). The result has the same sorted lists as a FromEdges build over
// the same node count and edge set, so its Fingerprint equals that build's:
// the property the serving layer's cache invalidation keys on, pinned by
// TestDeltaFingerprintProperty and FuzzDeltaApply.
func (d Delta) Apply(g *Graph, budgets []int) (*Graph, []int, []int, error) {
	if g == nil {
		return nil, nil, nil, fmt.Errorf("graph: delta: nil graph")
	}
	n := g.N()
	if len(budgets) != n {
		return nil, nil, nil, fmt.Errorf("graph: delta: %d budgets for %d nodes", len(budgets), n)
	}
	if d.AddNodes < 0 {
		return nil, nil, nil, fmt.Errorf("graph: delta: add_nodes = %d must be >= 0", d.AddNodes)
	}
	if len(d.NewBudgets) != 0 && len(d.NewBudgets) != d.AddNodes {
		return nil, nil, nil, fmt.Errorf("graph: delta: %d new_budgets for %d added nodes",
			len(d.NewBudgets), d.AddNodes)
	}
	for i, b := range d.NewBudgets {
		if b < 0 {
			return nil, nil, nil, fmt.Errorf("graph: delta: new_budgets[%d] = %d must be >= 0", i, b)
		}
	}

	// mapping marks removed nodes with -1 here; survivors are numbered below.
	mapping := make([]int, n)
	for _, v := range d.RemoveNodes {
		if v < 0 || v >= n {
			return nil, nil, nil, fmt.Errorf("graph: delta: remove_nodes: node %d out of range [0, %d)", v, n)
		}
		if mapping[v] < 0 {
			return nil, nil, nil, fmt.Errorf("graph: delta: remove_nodes: node %d listed twice", v)
		}
		mapping[v] = -1
	}

	var dropEdge map[uint64]bool
	if len(d.RemoveEdges) > 0 {
		dropEdge = make(map[uint64]bool, len(d.RemoveEdges))
	}
	for i, e := range d.RemoveEdges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, nil, nil, fmt.Errorf("graph: delta: remove_edges[%d] {%d,%d}: endpoint out of range [0, %d)", i, u, v, n)
		}
		if u == v {
			return nil, nil, nil, fmt.Errorf("graph: delta: remove_edges[%d]: self-loop at node %d", i, u)
		}
		if !g.HasEdge(u, v) {
			return nil, nil, nil, fmt.Errorf("graph: delta: remove_edges[%d]: edge {%d,%d} does not exist", i, u, v)
		}
		key := packEdge(u, v)
		if dropEdge[key] {
			return nil, nil, nil, fmt.Errorf("graph: delta: remove_edges[%d]: edge {%d,%d} listed twice", i, u, v)
		}
		dropEdge[key] = true
	}

	// Survivors keep their relative order; added nodes take the next IDs.
	survivors := 0
	for v := range mapping {
		if mapping[v] < 0 {
			continue
		}
		mapping[v] = survivors
		survivors++
	}
	n2 := survivors + d.AddNodes

	for i, e := range d.AddEdges {
		u, v := e[0], e[1]
		if u < 0 || u >= n2 || v < 0 || v >= n2 {
			return nil, nil, nil, fmt.Errorf("graph: delta: add_edges[%d] {%d,%d}: endpoint out of post-delta range [0, %d)", i, u, v, n2)
		}
		if u == v {
			return nil, nil, nil, fmt.Errorf("graph: delta: add_edges[%d]: self-loop at node %d", i, u)
		}
	}
	if err := checkNodeCount(n2); err != nil {
		return nil, nil, nil, fmt.Errorf("graph: delta: %w", err)
	}
	g2, dup := d.relabel(g, mapping, dropEdge, n2)
	if dup >= 0 {
		e := d.AddEdges[dup]
		return nil, nil, nil, fmt.Errorf("graph: delta: add_edges[%d]: edge {%d,%d} already present",
			dup, e[0], e[1])
	}

	budgets2 := make([]int, n2)
	for v := 0; v < n; v++ {
		if mapping[v] >= 0 {
			budgets2[mapping[v]] = budgets[v]
		}
	}
	for i := 0; i < d.AddNodes; i++ {
		if len(d.NewBudgets) > 0 {
			budgets2[survivors+i] = d.NewBudgets[i]
		}
	}
	seenUpdate := make(map[int]bool, len(d.SetBudgets))
	for i, up := range d.SetBudgets {
		if up.Node < 0 || up.Node >= n {
			return nil, nil, nil, fmt.Errorf("graph: delta: set_budgets[%d]: node %d out of range [0, %d)", i, up.Node, n)
		}
		if mapping[up.Node] < 0 {
			return nil, nil, nil, fmt.Errorf("graph: delta: set_budgets[%d]: node %d is removed by this delta", i, up.Node)
		}
		if seenUpdate[up.Node] {
			return nil, nil, nil, fmt.Errorf("graph: delta: set_budgets[%d]: node %d updated twice", i, up.Node)
		}
		if up.Budget < 0 {
			return nil, nil, nil, fmt.Errorf("graph: delta: set_budgets[%d]: budget %d must be >= 0", i, up.Budget)
		}
		seenUpdate[up.Node] = true
		budgets2[mapping[up.Node]] = up.Budget
	}

	return g2, budgets2, mapping, nil
}

// half is one endpoint's side of an added edge: nbr joins at's list.
type half struct {
	at, nbr int32
	idx     int // the edge's index in AddEdges
}

// relabel builds the post-delta graph on n2 nodes from g, the numbered
// mapping and the validated removals and additions. Survivors keep their
// order, so a survivor's list of g, with removed nodes and dropped edges
// filtered out and IDs mapped, is still sorted. Each such list is merged
// with the node's added neighbors (sorted per endpoint) and written in node
// order into one shared neighbor array; every list is cut with its capacity
// capped, as in FromEdges. relabel also returns the index of the first
// add_edges entry that repeats a carried edge or an earlier entry, or -1;
// the graph is then not simple and must be discarded.
func (d Delta) relabel(g *Graph, mapping []int, dropEdge map[uint64]bool, n2 int) (*Graph, int) {
	halves := make([]half, 0, 2*len(d.AddEdges))
	for i, e := range d.AddEdges {
		halves = append(halves, half{int32(e[0]), int32(e[1]), i}, half{int32(e[1]), int32(e[0]), i})
	}
	slices.SortFunc(halves, func(a, b half) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.nbr, b.nbr), cmp.Compare(a.idx, b.idx))
	})
	dup := -1
	repeat := func(idx int) {
		if dup < 0 || idx < dup {
			dup = idx
		}
	}
	for i := 1; i < len(halves); i++ {
		if halves[i].at == halves[i-1].at && halves[i].nbr == halves[i-1].nbr {
			repeat(halves[i].idx)
		}
	}

	// The carried edges are g's minus those at a removed node (each counted
	// once) and the listed removals between survivors.
	carried := g.m
	for _, r := range d.RemoveNodes {
		for _, u := range g.adj[r] {
			if mapping[u] >= 0 || int(u) > r {
				carried--
			}
		}
	}
	for _, e := range d.RemoveEdges {
		if mapping[e[0]] >= 0 && mapping[e[1]] >= 0 {
			carried--
		}
	}

	nbrs := make([]int32, 2*carried+len(halves))
	g2 := &Graph{adj: make([][]int32, n2), m: carried + len(d.AddEdges)}
	pos, h := 0, 0
	// added writes nv's added neighbors below limit.
	added := func(nv, limit int32) {
		for ; h < len(halves) && halves[h].at == nv && halves[h].nbr < limit; h++ {
			nbrs[pos] = halves[h].nbr
			pos++
		}
	}
	for v, list := range g.adj {
		if mapping[v] < 0 {
			continue
		}
		nv, start := int32(mapping[v]), pos
		// Most survivors gain no edge; their lists are copied without the
		// merge's checks (a fifth of Apply's time on patch-churn's shape).
		merge := h < len(halves) && halves[h].at == nv
		for _, u := range list {
			mu := int32(mapping[u])
			if mu < 0 || (dropEdge != nil && dropEdge[packEdge(v, int(u))]) {
				continue
			}
			if merge {
				added(nv, mu)
				if h < len(halves) && halves[h].at == nv && halves[h].nbr == mu {
					repeat(halves[h].idx)
				}
			}
			nbrs[pos] = mu
			pos++
		}
		added(nv, math.MaxInt32)
		g2.adj[nv] = nbrs[start:pos:pos]
	}
	// Added nodes start isolated: their lists hold added edges only.
	for nv := n2 - d.AddNodes; nv < n2; nv++ {
		start := pos
		added(int32(nv), math.MaxInt32)
		g2.adj[nv] = nbrs[start:pos:pos]
	}
	return g2, dup
}

// HashInto mixes the delta into h as a canonical key component: every field
// is labeled and length-framed (via the Hasher contract), so two distinct
// deltas produce distinct key material and the serving layer can cache
// reconfiguration results under Hasher sums like every other request.
func (d Delta) HashInto(h *Hasher) *Hasher {
	pairs := func(label string, ps [][2]int) {
		flat := make([]int, 0, 2*len(ps))
		for _, p := range ps {
			flat = append(flat, p[0], p[1])
		}
		h.Ints(label, flat)
	}
	pairs("delta.remove_edges", d.RemoveEdges)
	h.Ints("delta.remove_nodes", d.RemoveNodes)
	h.Int("delta.add_nodes", d.AddNodes)
	h.Ints("delta.new_budgets", d.NewBudgets)
	pairs("delta.add_edges", d.AddEdges)
	updates := make([]int, 0, 2*len(d.SetBudgets))
	for _, up := range d.SetBudgets {
		updates = append(updates, up.Node, up.Budget)
	}
	h.Ints("delta.set_budgets", updates)
	return h
}
