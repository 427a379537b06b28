// Package exact computes optimal solutions to the Maximum Cluster-Lifetime
// problem on small instances, giving the experiments a ground truth to
// measure approximation ratios against (the paper proves O(log n) ratios but
// never exhibits optima; we can, for small n).
//
// The pipeline: enumerate all *minimal* k-dominating sets (an optimal
// schedule never benefits from a non-minimal set — shrinking a set preserves
// feasibility) with domset.Enumerate, the one branch-and-bound over
// dominating sets, then
//
//   - Fractional: solve the packing LP  max Σ t_D  s.t.  Σ_{D∋v} t_D ≤ b_v,
//     t ≥ 0 — an upper bound on the integral optimum and the natural
//     continuous-time relaxation;
//   - Integral: branch-and-bound over integer slot allocations, pruned by
//     the residual energy-coverage bound of Lemma 5.1.
//
// Column generation (FractionalCG) prices its columns with
// domset.MinimumWeightExact, another Enumerate leaf, instead of listing
// every set. Everything here is exponential by design; callers keep n small
// (≲ 20).
package exact

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/lp"
)

// MinimalDominatingSets enumerates every minimal k-dominating set of g,
// each sorted, in lexicographic order. A set is minimal if removing any
// member breaks k-domination. It is domset.Enumerate's search with no
// bound, whose leaf keeps a set when no member can leave it.
func MinimalDominatingSets(g *graph.Graph, k int) [][]int {
	if k < 1 {
		panic("exact: k must be >= 1")
	}
	if g.N() == 0 {
		return [][]int{{}}
	}
	sess := domset.NewSession(g)
	var out [][]int
	domset.Enumerate(g, k, nil, nil, func(set []int, _ float64) float64 {
		sess.Reset(set, k, nil)
		if !slices.ContainsFunc(set, sess.DropKeeps) {
			kept := slices.Clone(set)
			slices.Sort(kept)
			out = append(out, kept)
		}
		return math.Inf(1)
	})
	slices.SortFunc(out, slices.Compare[[]int])
	return out
}

// Fractional solves the continuous-time Maximum k-tolerant Cluster-Lifetime
// relaxation: the maximum total duration of a fractional schedule over
// minimal k-dominating sets subject to battery budgets b. It returns the
// optimal value and the per-set durations aligned with the returned sets.
// If no k-dominating set exists the lifetime is 0.
func Fractional(g *graph.Graph, b []int, k int) (float64, [][]int, []float64, error) {
	if len(b) != g.N() {
		return 0, nil, nil, fmt.Errorf("exact: %d batteries for %d nodes", len(b), g.N())
	}
	sets := MinimalDominatingSets(g, k)
	if len(sets) == 0 {
		return 0, nil, nil, nil
	}
	c := make([]float64, len(sets))
	for i := range c {
		c[i] = 1
	}
	a := make([][]float64, g.N())
	bounds := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		if b[v] < 0 {
			return 0, nil, nil, fmt.Errorf("exact: negative battery b[%d] = %d", v, b[v])
		}
		row := make([]float64, len(sets))
		for j, set := range sets {
			for _, u := range set {
				if u == v {
					row[j] = 1
					break
				}
			}
		}
		a[v] = row
		bounds[v] = float64(b[v])
	}
	prob, err := lp.NewProblem(c, a, bounds)
	if err != nil {
		return 0, nil, nil, err
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, nil, nil, err
	}
	return sol.Value, sets, sol.X, nil
}

// Integral computes the exact integral Maximum k-tolerant Cluster-Lifetime:
// the longest schedule with integer slot counts per dominating set. It
// returns the optimal lifetime and one optimal schedule as (set, duration)
// pairs with positive durations.
func Integral(g *graph.Graph, b []int, k int) (int, [][]int, []int) {
	if len(b) != g.N() {
		panic(fmt.Sprintf("exact: %d batteries for %d nodes", len(b), g.N()))
	}
	sets := MinimalDominatingSets(g, k)
	if len(sets) == 0 {
		return 0, nil, nil
	}
	n := g.N()
	residual := make([]int, n)
	copy(residual, b)

	bestVal := 0
	bestAlloc := make([]int, len(sets))
	alloc := make([]int, len(sets))

	// Seed the search with a greedy incumbent: walk the sets once,
	// allocating each its maximum feasible duration. This gives the
	// branch-and-bound a strong lower bound immediately, which the
	// coverage-bound pruning then cuts against.
	greedyVal := 0
	greedyAlloc := make([]int, len(sets))
	for i, set := range sets {
		t := -1
		for _, v := range set {
			if t == -1 || residual[v] < t {
				t = residual[v]
			}
		}
		if t > 0 {
			greedyAlloc[i] = t
			greedyVal += t
			for _, v := range set {
				residual[v] -= t
			}
		}
	}
	for i, t := range greedyAlloc {
		for _, v := range sets[i] {
			residual[v] += t
		}
	}
	bestVal = greedyVal
	copy(bestAlloc, greedyAlloc)

	var rec func(idx, lifetime int)
	rec = func(idx, lifetime int) {
		if lifetime > bestVal {
			bestVal = lifetime
			copy(bestAlloc, alloc)
		}
		if idx == len(sets) {
			return
		}
		// Lemmas 5.1 and 6.1 on the residual batteries: each further slot
		// drains at least k units from the binding closed neighborhood.
		if lifetime+core.GeneralKTolerantUpperBound(g, residual, k) <= bestVal {
			return
		}
		// Maximum slots this set can run given residual batteries.
		maxT := -1
		for _, v := range sets[idx] {
			if maxT == -1 || residual[v] < maxT {
				maxT = residual[v]
			}
		}
		// Try larger allocations first for earlier strong incumbents.
		for t := maxT; t >= 0; t-- {
			for _, v := range sets[idx] {
				residual[v] -= t
			}
			alloc[idx] = t
			rec(idx+1, lifetime+t)
			alloc[idx] = 0
			for _, v := range sets[idx] {
				residual[v] += t
			}
		}
	}
	rec(0, 0)

	var outSets [][]int
	var outDur []int
	for i, t := range bestAlloc {
		if t > 0 {
			outSets = append(outSets, sets[i])
			outDur = append(outDur, t)
		}
	}
	return bestVal, outSets, outDur
}
