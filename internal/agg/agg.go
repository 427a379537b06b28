// Package agg implements the data-aggregation substrate the paper's problem
// statement motivates: the duty budget b_v is deliberately *less* than the
// node's full battery so that the remainder can pay for delivering the
// gathered data to an information sink, "for example by collectively
// constructing a data aggregation tree" (paper, §2). The package builds
// BFS aggregation trees and accounts for the transmissions a slot's
// clusterheads need to push their aggregates to the sink.
package agg

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Tree is a rooted spanning tree of a connected graph, oriented toward the
// sink (the root).
type Tree struct {
	Sink   int
	Parent []int // Parent[root] = -1
	depth  []int
}

// NewBFSTree builds a breadth-first spanning tree of g rooted at sink, the
// standard minimum-hop aggregation tree. It fails if g is disconnected or
// the sink is out of range.
func NewBFSTree(g *graph.Graph, sink int) (*Tree, error) {
	n := g.N()
	if sink < 0 || sink >= n {
		return nil, fmt.Errorf("agg: sink %d out of range [0, %d)", sink, n)
	}
	parent := make([]int, n)
	depth := make([]int, n)
	for i := range parent {
		parent[i] = -2
		depth[i] = -1
	}
	parent[sink] = -1
	depth[sink] = 0
	queue := []int{sink}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if parent[u] == -2 {
				parent[u] = v
				depth[u] = depth[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	for v, p := range parent {
		if p == -2 {
			return nil, fmt.Errorf("agg: node %d unreachable from sink %d", v, sink)
		}
	}
	return &Tree{Sink: sink, Parent: parent, depth: depth}, nil
}

// DeliveryCost returns the number of tree-edge transmissions needed to
// deliver one aggregate from every source to the sink with in-network
// aggregation: intermediate nodes merge incoming aggregates, so the cost is
// the number of distinct tree edges on the union of the sources' root
// paths (the Steiner tree of sources ∪ {sink} within the tree).
func (t *Tree) DeliveryCost(sources []int) int {
	used := bitset.New(len(t.Parent))
	cost := 0
	for _, s := range sources {
		for v := s; v != t.Sink && !used.Test(v); v = t.Parent[v] {
			used.Set(v)
			cost++
		}
	}
	return cost
}

// Validate checks tree invariants against the underlying graph: every
// non-root parent pointer follows a real edge and depths decrease by one
// toward the sink.
func (t *Tree) Validate(g *graph.Graph) error {
	if len(t.Parent) != g.N() {
		return fmt.Errorf("agg: tree covers %d nodes, graph has %d", len(t.Parent), g.N())
	}
	for v, p := range t.Parent {
		if v == t.Sink {
			if p != -1 {
				return fmt.Errorf("agg: sink %d has parent %d", v, p)
			}
			continue
		}
		if p < 0 || p >= g.N() {
			return fmt.Errorf("agg: node %d has invalid parent %d", v, p)
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("agg: tree edge {%d,%d} not in graph", v, p)
		}
		if t.depth[v] != t.depth[p]+1 {
			return fmt.Errorf("agg: node %d depth %d but parent depth %d", v, t.depth[v], t.depth[p])
		}
	}
	return nil
}
