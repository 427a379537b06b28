// Package domset implements dominating-set primitives: the domination
// kernel Session, whose exact per-node dominator counters answer every
// plain and fault-tolerant (k-)domination query from O(n) words of state,
// with the one-shot verifiers IsDominating and IsKDominating on top; the
// classical greedy set-cover approximation for minimum dominating sets, its
// greedy k-dominating extension, and an exact branch-and-bound minimum
// dominating set for small graphs. IsIndependent and IsMaximalIndependent
// check the maximal independent sets other packages build (every MIS is a
// dominating set; in unit disk graphs it is a constant-factor
// approximation, as the paper's related-work section recounts).
package domset

import (
	"sort"

	"repro/internal/graph"
)

// IsDominating reports whether set is a dominating set of g restricted to
// the nodes for which alive is true (alive == nil means all nodes). A node
// in the set dominates itself. Dead nodes neither need domination nor
// dominate others.
func IsDominating(g *graph.Graph, set []int, alive []bool) bool {
	return IsKDominating(g, set, 1, alive)
}

// IsKDominating reports whether every alive node has at least k dominators
// in its closed neighborhood within set (counting itself if it is in the
// set), considering only alive dominators. A demand of k < 1 dominators is
// always met; set and alive are range-checked all the same.
//
// This is the one-shot form; a caller checking many sets on one graph
// holds a Session and calls Reset, reusing its state across calls.
func IsKDominating(g *graph.Graph, set []int, k int, alive []bool) bool {
	s := NewSession(g).Reset(set, max(k, 1), alive)
	return k < 1 || s.IsKDominating()
}

// Greedy returns a dominating set via the classical set-cover greedy: it
// repeatedly adds the node that dominates the most not-yet-dominated nodes
// (ties broken by smallest ID). The result is within ln(Δ+1)+1 of the
// minimum dominating set. The returned set is sorted.
func Greedy(g *graph.Graph) []int {
	return GreedyK(g, 1, nil, nil)
}

// GreedyRestricted runs the set-cover greedy where only nodes with
// allowed[v] == true may join the dominating set and only alive nodes need
// to be dominated (nil slices mean "all nodes"); dead nodes never join. It
// returns nil if no allowed set dominates all alive nodes (e.g. an alive
// node whose entire closed neighborhood is disallowed).
func GreedyRestricted(g *graph.Graph, allowed, alive []bool) []int {
	return GreedyK(g, 1, allowed, alive)
}

// GreedyK returns a k-dominating set greedily: every alive node must end up
// with at least k dominators in its closed neighborhood. Each step adds the
// allowed, alive node that reduces the total residual demand the most, the
// lowest ID on ties; dead nodes never join, since a dead member dominates
// no one. Returns nil if infeasible (some alive node's closed neighborhood
// has fewer than k allowed, alive members). The returned set is sorted.
//
// A candidate's gain (the alive nodes in its closed neighborhood that still
// need a dominator) is kept current rather than recounted: it only drops,
// once per neighbor whose demand reaches 0, so an extraction costs
// O(n + m + |D|·n) — one scan of the gains per pick — instead of
// O(|D|·(n + m)).
func GreedyK(g *graph.Graph, k int, allowed, alive []bool) []int {
	if k < 1 {
		panic("domset: k must be >= 1")
	}
	n := g.N()
	demand := make([]int32, n)
	total := 0
	for v := 0; v < n; v++ {
		if alive == nil || alive[v] {
			demand[v] = int32(k)
			total += k
		}
	}
	// gain[v] = |{u ∈ N+[v] : demand[u] > 0}| for every candidate; nodes
	// that may not join, or already have, sit at 0 or below and never win.
	gain := make([]int32, n)
	for v := 0; v < n; v++ {
		if (allowed != nil && !allowed[v]) || (alive != nil && !alive[v]) {
			continue
		}
		if alive == nil {
			gain[v] = int32(g.Degree(v) + 1)
			continue
		}
		c := int32(1)
		for _, u := range g.Neighbors(v) {
			if alive[u] {
				c++
			}
		}
		gain[v] = c
	}
	// serve hands u one more dominator; when u's demand is met, it stops
	// counting toward the gain of every node in its closed neighborhood.
	serve := func(u int) {
		if demand[u] == 0 {
			return
		}
		demand[u]--
		total--
		if demand[u] == 0 {
			gain[u]--
			for _, w := range g.Neighbors(u) {
				gain[w]--
			}
		}
	}
	var set []int
	for total > 0 {
		best, bestGain := -1, int32(0)
		for v, c := range gain {
			if c > bestGain {
				best, bestGain = v, c
			}
		}
		if best == -1 {
			return nil
		}
		gain[best] = 0
		set = append(set, best)
		serve(best)
		for _, u := range g.Neighbors(best) {
			serve(int(u))
		}
	}
	sort.Ints(set)
	return set
}

// IsIndependent reports whether no two nodes of set are adjacent.
func IsIndependent(g *graph.Graph, set []int) bool {
	in := make([]bool, g.N())
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, u := range g.Neighbors(v) {
			if in[u] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependent reports whether set is independent and no node can be
// added while preserving independence (equivalently: independent and
// dominating).
func IsMaximalIndependent(g *graph.Graph, set []int) bool {
	return IsIndependent(g, set) && IsDominating(g, set, nil)
}
