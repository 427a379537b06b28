// Package graph implements the undirected network graph model of the paper:
// nodes are vertices, an edge {u,v} means u and v are within communication
// range of each other. Edges are undirected (the paper assumes link-level
// acknowledgements make links symmetric).
//
// The representation is a compact adjacency list with sorted neighbor
// slices. Node IDs are dense integers in [0, N). The package also provides
// the degree statistics the algorithms consume: per-node degree δ_v, global
// minimum degree δ and maximum degree Δ, and the two-hop minimum degree
// δ²_v = min_{u ∈ N+[v]} δ_u that Algorithm 1 computes with one message
// exchange.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Graph is an undirected simple graph over nodes 0..N()-1. It is immutable
// once built: every edge enters through FromEdges (directly or via
// NewFromEdges, ReadEdgeList and the generators of package gen), through
// InducedSubgraph, or through Delta.Apply, which relabels an existing graph.
// So one Graph is safe to share across goroutines, cached instances and
// shards. The zero value is an empty graph.
type Graph struct {
	adj [][]int32 // sorted neighbor lists
	m   int       // number of edges
}

// New returns the edgeless graph on n isolated nodes. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{adj: make([][]int32, n)}
}

// FromEdges builds a graph from an undirected edge list in O(n + m log Δ)
// and validates it on the way: endpoints must lie in [0, n), and self-loops
// and duplicate edges (in either orientation) are errors naming the offending
// edge's index. It buckets all edges per node into one shared neighbor array
// and sorts each adjacency list once; duplicates show up as equal neighbors
// in a sorted list. Every list is cut from the shared array with its capacity
// capped, so a caller's append to a Neighbors slice reallocates instead of
// overwriting the next node's list. It is the one constructor behind
// NewFromEdges, ReadEdgeList, the generators and the service's request
// decoding. Delta.Apply does not go through it: it relabels the graph it is
// applied to into the same sorted lists a FromEdges build would give.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	// end[v] counts v's neighbors, then becomes the end of its list, then
	// (after the fill decrements it) the start.
	end := make([]int, n+1)
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, &edgeError{i, u, v, fmt.Sprintf("endpoint out of range [0, %d)", n)}
		}
		if u == v {
			return nil, &edgeError{i, u, v, "self-loop"}
		}
		end[u]++
		end[v]++
	}
	for v := 1; v < n; v++ {
		end[v] += end[v-1]
	}
	nbrs := make([]int32, 2*len(edges))
	end[n] = len(nbrs)
	for _, e := range edges {
		end[e[0]]--
		nbrs[end[e[0]]] = int32(e[1])
		end[e[1]]--
		nbrs[end[e[1]]] = int32(e[0])
	}
	g := &Graph{adj: make([][]int32, n), m: len(edges)}
	for v := range g.adj {
		s := nbrs[end[v]:end[v+1]:end[v+1]]
		slices.Sort(s)
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				return nil, duplicateEdge(edges, v, int(s[i]))
			}
		}
		g.adj[v] = s
	}
	return g, nil
}

// checkNodeCount rejects a node count that int32 neighbor IDs cannot hold.
func checkNodeCount(n int) error {
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("graph: node count %d out of range [0, %d]", n, math.MaxInt32)
	}
	return nil
}

// edgeError reports the first edge FromEdges rejected, by its index in the
// input list.
type edgeError struct {
	index int
	u, v  int
	msg   string
}

func (e *edgeError) Error() string {
	return fmt.Sprintf("graph: edge %d {%d,%d}: %s", e.index, e.u, e.v, e.msg)
}

// duplicateEdge locates the second listing of the undirected edge {u, v}.
func duplicateEdge(edges [][2]int, u, v int) *edgeError {
	seen := false
	for i, e := range edges {
		if (e[0] == u && e[1] == v) || (e[0] == v && e[1] == u) {
			if seen {
				return &edgeError{i, e[0], e[1], "duplicate edge"}
			}
			seen = true
		}
	}
	panic("graph: duplicate edge not found in its own edge list")
}

// NewFromEdges is FromEdges for inputs that are valid by construction
// (generators, tests): it panics where FromEdges returns an error, so a
// generator bug that emits a self-loop or a repeated pair fails loudly.
func NewFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err.Error())
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) checkNode(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", v, len(g.adj)))
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	_, found := slices.BinarySearch(g.adj[u], int32(v))
	return found
}

// Neighbors returns the sorted open neighborhood N(v). The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	g.checkNode(v)
	return g.adj[v]
}

// Degree returns δ_v = |N(v)|.
func (g *Graph) Degree(v int) int {
	g.checkNode(v)
	return len(g.adj[v])
}

// MinDegree returns δ = min_v δ_v, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, nbrs := range g.adj[1:] {
		if len(nbrs) < min {
			min = len(nbrs)
		}
	}
	return min
}

// MaxDegree returns Δ = max_v δ_v, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > max {
			max = len(nbrs)
		}
	}
	return max
}

// TwoHopMinDegree returns δ²_v = min_{u ∈ N+[v]} δ_u for every node: the
// quantity each node learns after a single exchange of degrees with its
// neighbors (line 3 of Algorithm 1 in the paper).
func (g *Graph) TwoHopMinDegree() []int {
	out := make([]int, len(g.adj))
	for v, nbrs := range g.adj {
		min := len(nbrs)
		for _, u := range nbrs {
			if d := len(g.adj[u]); d < min {
				min = d
			}
		}
		out[v] = min
	}
	return out
}

// ClosedNeighborhood returns N+[v] = N(v) ∪ {v} as a sorted fresh slice.
func (g *Graph) ClosedNeighborhood(v int) []int32 {
	g.checkNode(v)
	out := make([]int32, 0, len(g.adj[v])+1)
	inserted := false
	for _, u := range g.adj[v] {
		if !inserted && int32(v) < u {
			out = append(out, int32(v))
			inserted = true
		}
		out = append(out, u)
	}
	if !inserted {
		out = append(out, int32(v))
	}
	return out
}

// Edges calls fn once per undirected edge with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u, nbrs := range g.adj {
		for _, w := range nbrs {
			if int32(u) < w {
				fn(u, int(w))
			}
		}
	}
}

// InducedSubgraph returns the subgraph induced by the given nodes together
// with the mapping from new IDs to original IDs: node i of the result is
// nodes[i]. Duplicate nodes panic. It relabels g's lists straight into one
// shared neighbor array with FromEdges' fill: new IDs are visited in
// decreasing order and each is written at the end of its neighbors' lists,
// so every list comes out sorted without a sort.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	k := len(nodes)
	// idx[v] is v's new ID plus one, or 0 when v is not kept.
	idx := make([]int32, len(g.adj))
	orig := make([]int, k)
	for i, v := range nodes {
		g.checkNode(v)
		if idx[v] != 0 {
			panic(fmt.Sprintf("graph: duplicate node %d in induced subgraph", v))
		}
		idx[v] = int32(i + 1)
		orig[i] = v
	}
	// end[i] counts i's kept neighbors, then becomes the end of its list,
	// then (after the fill decrements it) the start; end[k] is the total.
	end := make([]int, k+1)
	for i, v := range nodes {
		for _, u := range g.adj[v] {
			if idx[u] != 0 {
				end[i]++
			}
		}
	}
	for i := 1; i <= k; i++ {
		end[i] += end[i-1]
	}
	nbrs := make([]int32, end[k])
	for j := k - 1; j >= 0; j-- {
		for _, u := range g.adj[nodes[j]] {
			if i := idx[u] - 1; i >= 0 {
				end[i]--
				nbrs[end[i]] = int32(j)
			}
		}
	}
	sub := &Graph{adj: make([][]int32, k), m: len(nbrs) / 2}
	for i := range sub.adj {
		sub.adj[i] = nbrs[end[i]:end[i+1]:end[i+1]]
	}
	return sub, orig
}

// BFS runs a breadth-first search from src and returns the distance slice
// (-1 for unreachable nodes).
func (g *Graph) BFS(src int) []int {
	g.checkNode(src)
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	return dist
}

// Connected reports whether g is connected: one breadth-first sweep from
// node 0 reaches every node. The empty graph and the single-node graph are
// connected.
func (g *Graph) Connected() bool {
	n := len(g.adj)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	seen[0] = true
	queue := make([]int32, 1, n) // starts at node 0
	for i := 0; i < len(queue); i++ {
		for _, u := range g.adj[queue[i]] {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return len(queue) == n
}

// Components returns the connected components as slices of node IDs, each
// sorted, in order of smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, len(g.adj))
	var comps [][]int
	for s := range g.adj {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			for _, u := range g.adj[comp[i]] {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, int(u))
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Validate checks internal invariants (sorted, symmetric, simple adjacency)
// and returns an error describing the first violation. Generators call this
// in tests.
func (g *Graph) Validate() error {
	count := 0
	for v, nbrs := range g.adj {
		for i, u := range nbrs {
			if int(u) < 0 || int(u) >= len(g.adj) {
				return fmt.Errorf("node %d: neighbor %d out of range", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("node %d: self-loop", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("node %d: neighbors not strictly sorted at %d", v, i)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("edge {%d,%d} not symmetric", v, u)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("edge count %d does not match adjacency size %d", g.m, count)
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d δ=%d Δ=%d}", g.N(), g.M(), g.MinDegree(), g.MaxDegree())
}
