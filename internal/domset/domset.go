// Package domset implements dominating-set primitives: the domination
// kernel Session, whose exact per-node dominator counters answer every
// plain and fault-tolerant (k-)domination query from O(n) words of state,
// with the one-shot verifiers IsDominating and IsKDominating on top; the
// classical greedy set-cover approximation for minimum dominating sets, its
// greedy k-dominating extension, and Enumerate, the exact branch-and-bound
// over k-dominating sets of small graphs behind MinimumExact,
// MinimumWeightExact and exact.MinimalDominatingSets. IsIndependent and
// IsMaximalIndependent check the maximal independent sets other packages
// build (every MIS is a dominating set; in unit disk graphs it is a
// constant-factor approximation, as the paper's related-work section
// recounts).
package domset

import (
	"sort"
	"sync"

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
// no one. The returned set is sorted and freshly allocated.
//
// It returns nil, before its first pick, when the instance is infeasible:
// some alive node u has fewer than k allowed, alive nodes in N+[u]. That is
// the only way the pick loop could run dry — while u lacks a dominator, an
// unpicked allowed, alive node of N+[u] still gains from covering it. The
// check reads each adjacency only until it finds k such nodes, so it costs
// O(n) when most nodes may serve and an infeasible call stops at the first
// uncoverable node instead of running a full greedy.
//
// A candidate's gain (the alive nodes in its closed neighborhood that still
// need a dominator) is kept current rather than recounted: it only drops,
// once per neighbor whose demand reaches 0, so an extraction costs
// O(n + m + |D|·n) — one scan of the gains per pick — instead of
// O(|D|·(n + m)). The demand and gain arrays come from a package pool, so
// repeated calls allocate only their result.
func GreedyK(g *graph.Graph, k int, allowed, alive []bool) []int {
	if k < 1 {
		panic("domset: k must be >= 1")
	}
	n := g.N()
	for u := 0; u < n; u++ {
		if (alive == nil || alive[u]) && !kSupplied(g, u, k, allowed, alive) {
			return nil
		}
	}
	arrays := greedyPool.Get().(*greedyArrays)
	defer greedyPool.Put(arrays)
	demand, gain := arrays.grow(n)
	total := 0
	for v := 0; v < n; v++ {
		if alive == nil || alive[v] {
			demand[v] = int32(k)
			total += k
		}
	}
	// gain[v] = |{u ∈ N+[v] : demand[u] > 0}| for every candidate; nodes
	// that may not join, or already have, sit at 0 or below and never win.
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

// kSupplied reports whether N+[u] holds at least k allowed, alive nodes,
// reading only as much of u's adjacency as it takes to find them.
func kSupplied(g *graph.Graph, u, k int, allowed, alive []bool) bool {
	can := func(v int) bool {
		return (allowed == nil || allowed[v]) && (alive == nil || alive[v])
	}
	c := 0
	if can(u) {
		c++
	}
	for _, w := range g.Neighbors(u) {
		if c >= k {
			break
		}
		if can(int(w)) {
			c++
		}
	}
	return c >= k
}

// greedyArrays is GreedyK's scratch: the per-node demand and gain. They
// are pooled rather than allocated per call, since GreedyK runs once per
// phase of every greedy schedule.
type greedyArrays struct{ demand, gain []int32 }

var greedyPool = sync.Pool{New: func() any { return new(greedyArrays) }}

// grow returns the two arrays resized to n and zeroed.
func (a *greedyArrays) grow(n int) (demand, gain []int32) {
	if cap(a.demand) < n {
		a.demand, a.gain = make([]int32, n), make([]int32, n)
	}
	a.demand, a.gain = a.demand[:n], a.gain[:n]
	clear(a.demand)
	clear(a.gain)
	return a.demand, a.gain
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
