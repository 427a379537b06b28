package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// GeneralUpperBound returns the Lemma 5.1 bound on the optimal general
// cluster-lifetime: L_OPT ≤ min_u Σ_{w∈N+[u]} b_w, the minimum energy
// coverage of the network. Every slot drains at least one unit from the
// binding node's closed neighborhood. On uniform batteries b it is Lemma
// 4.1's b(δ+1): b times δ+1, the trivial bound on the fractional domatic
// number.
func GeneralUpperBound(g *graph.Graph, b []int) int {
	if len(b) != g.N() {
		panic(fmt.Sprintf("core: %d batteries for %d nodes", len(b), g.N()))
	}
	if g.N() == 0 {
		return 0
	}
	best := math.MaxInt
	for v := 0; v < g.N(); v++ {
		sum := b[v]
		for _, u := range g.Neighbors(v) {
			sum += b[u]
		}
		if sum < best {
			best = sum
		}
	}
	return best
}

// GeneralKTolerantUpperBound combines Lemmas 5.1 and 6.1: a k-tolerant
// schedule drains at least k budget units per slot from the binding node's
// closed neighborhood, so L_OPT ≤ min_u Σ_{N+[u]} b_w / k. On uniform
// batteries b it is Lemma 6.1's b(δ+1)/k.
func GeneralKTolerantUpperBound(g *graph.Graph, b []int, k int) int {
	if k < 1 {
		panic(fmt.Sprintf("core: tolerance k = %d must be >= 1", k))
	}
	return GeneralUpperBound(g, b) / k
}
