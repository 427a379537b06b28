package domset

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// Enumerate is the branch-and-bound behind every exact search over
// k-dominating sets of g; MinimumExact, MinimumWeightExact and
// exact.MinimalDominatingSets are leaf callbacks on it.
//
// It branches on the lowest-ID node with fewer than k dominators in the
// current set. One node of its closed neighborhood must join, so it tries
// the node itself, then its neighbors in adjacency order (cheapest first
// when weights is non-nil), skipping members and nodes that allowed bars
// (nil allows all). A tried candidate is forbidden in the subtrees of the
// candidates after it, so no set is reached twice.
//
// A set weighs the sum of its members' weights, or its size when weights is
// nil. Weights must be non-negative, so no superset weighs less, and a
// branch stops as soon as its weight reaches the bound. The bound starts at
// +Inf. At each k-dominating set the search calls leaf(set, weight) and
// takes its return value as the new bound: a leaf that keeps the best set
// returns its weight, one that keeps every set returns +Inf. set lists the
// members in the order they joined and is the search's own stack, so a
// leaf that keeps it must copy it.
//
// Enumerate returns false without calling leaf when some node has fewer
// than k allowed nodes in its closed neighborhood, so that no k-dominating
// set exists. It is exponential in the worst case: callers keep n small.
func Enumerate(g *graph.Graph, k int, allowed []bool, weights []float64, leaf func(set []int, weight float64) float64) bool {
	n := g.N()
	for u := 0; u < n; u++ {
		if !kSupplied(g, u, k, allowed, nil) {
			return false
		}
	}
	count := make([]int, n) // dominators of each node in the set
	inSet := make([]bool, n)
	forbidden := make([]bool, n)
	set := make([]int, 0, n)
	var cands []int // every level's candidates, stacked
	weight, bound := 0.0, math.Inf(1)
	usable := func(v int) bool {
		return !inSet[v] && !forbidden[v] && (allowed == nil || allowed[v])
	}
	var search func()
	search = func() {
		if weight >= bound {
			return
		}
		target := -1
		for v, c := range count {
			if c < k {
				target = v
				break
			}
		}
		if target < 0 {
			bound = leaf(set, weight)
			return
		}
		lo := len(cands)
		if usable(target) {
			cands = append(cands, target)
		}
		for _, u := range g.Neighbors(target) {
			if usable(int(u)) {
				cands = append(cands, int(u))
			}
		}
		hi := len(cands)
		if weights != nil {
			level := cands[lo:hi]
			sort.Slice(level, func(i, j int) bool { return weights[level[i]] < weights[level[j]] })
		}
		for i := lo; i < hi; i++ {
			c, w := cands[i], 1.0
			if weights != nil {
				w = weights[c]
			}
			inSet[c] = true
			set = append(set, c)
			weight += w
			count[c]++
			for _, u := range g.Neighbors(c) {
				count[u]++
			}
			search()
			count[c]--
			for _, u := range g.Neighbors(c) {
				count[u]--
			}
			weight -= w
			set = set[:len(set)-1]
			inSet[c] = false
			forbidden[c] = true
		}
		for _, c := range cands[lo:hi] {
			forbidden[c] = false
		}
		cands = cands[:lo]
	}
	search()
	return true
}

// MinimumExact returns a minimum-cardinality dominating set of g using only
// allowed nodes (nil means all), sorted, or nil if no allowed dominating set
// exists. The empty graph's answer is the empty, non-nil set. It runs
// Enumerate with a leaf that keeps the smallest set so far.
// The branching factor is at most Δ+1, so it is exponential in the worst
// case and meant for the small instances of the exact experiments (n ≲ 60
// sparse).
func MinimumExact(g *graph.Graph, allowed []bool) []int {
	best := []int{}
	if !Enumerate(g, 1, allowed, nil, func(set []int, size float64) float64 {
		best = append(best[:0], set...)
		return size
	}) {
		return nil
	}
	sort.Ints(best)
	return best
}

// MinimumWeightExact returns a k-dominating set of g minimizing the total
// node weight (weights must be non-negative), together with that weight.
// It runs Enumerate, cheapest candidates first, with a leaf that keeps the
// lightest set so far. Exponential; used as the pricing oracle of the
// column-generation LP (package exact). Returns (nil, +Inf) if no
// k-dominating set exists, and the empty set with weight 0 on the empty
// graph.
func MinimumWeightExact(g *graph.Graph, weights []float64, k int) ([]int, float64) {
	if len(weights) != g.N() {
		panic("domset: weight count mismatch")
	}
	if k < 1 {
		panic("domset: k must be >= 1")
	}
	for _, w := range weights {
		if w < 0 {
			panic("domset: negative weight")
		}
	}
	best, bestWeight := []int{}, 0.0
	if !Enumerate(g, k, nil, weights, func(set []int, weight float64) float64 {
		best, bestWeight = append(best[:0], set...), weight
		return weight
	}) {
		return nil, math.Inf(1)
	}
	sort.Ints(best)
	return best, bestWeight
}
