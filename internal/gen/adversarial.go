package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// FujitaTrap returns a graph on n = k² + k + 1 nodes on which the greedy
// domatic-partition algorithm — repeatedly extract a *minimum* dominating
// set from the unused nodes — finds only 2 disjoint dominating sets, while
// the domatic number is at least k = Θ(√n). This realizes, with an explicit
// construction we can verify in code, the Ω(√n) greedy lower bound the paper
// cites from Fujita (WAAC 1999).
//
// Construction (k ≥ 2):
//
//	z          (node 0)          adjacent to every a_i
//	a_0..a_{k-1}  (nodes 1..k)   a_i adjacent to z and to its row b_{i,*}
//	b_{i,j}    (nodes k+1..)     column j is a clique; b_{i,j} adjacent to a_i
//
// Why greedy collapses: any dominating set needs ≥ k nodes just to dominate
// the k² b-nodes (every node dominates at most k of them), and the *unique*
// size-k dominating set is {a_0..a_{k-1}} (a set of k column-b's leaves z
// undominated). Greedy therefore burns all a's in round one. Round two must
// dominate z, whose only remaining dominator is z itself, so round two takes
// z plus a permutation of b's. Round three has no dominator of z left:
// greedy stops at 2.
//
// Why the domatic number is ≥ k: the k sets
//
//	D_s = {a_s} ∪ {b_{i, (i+s) mod k} : i ∈ [0,k)}      s ∈ [0,k)
//
// are pairwise disjoint (Latin-square column choice) and each dominates
// every node. The second return value is exactly this certified partition.
func FujitaTrap(k int) (*graph.Graph, [][]int) {
	if k < 2 {
		panic("gen: FujitaTrap needs k >= 2")
	}
	n := k*k + k + 1
	a := func(i int) int { return 1 + i }
	b := func(i, j int) int { return 1 + k + i*k + j }
	var edges [][2]int
	for i := 0; i < k; i++ {
		edges = append(edges, [2]int{0, a(i)}) // z - a_i
		for j := 0; j < k; j++ {
			edges = append(edges, [2]int{a(i), b(i, j)}) // a_i - its row
		}
	}
	// Column cliques.
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			for i2 := i + 1; i2 < k; i2++ {
				edges = append(edges, [2]int{b(i, j), b(i2, j)})
			}
		}
	}
	partition := make([][]int, k)
	for s := 0; s < k; s++ {
		set := []int{a(s)}
		for i := 0; i < k; i++ {
			set = append(set, b(i, (i+s)%k))
		}
		partition[s] = set
	}
	return graph.NewFromEdges(n, edges), partition
}

// PlantedDomatic returns a graph with a certified domatic partition of size
// d on n nodes (n must be a multiple of d), plus that partition. Node v is
// assigned class v mod d; for every node u and every class c ≠ class(u), an
// edge is added from u to a random member of class c, guaranteeing every
// class dominates every node. extraEdges additional random edges are mixed
// in to roughen the structure. The returned partition is a lower-bound
// certificate for the domatic number.
func PlantedDomatic(n, d, extraEdges int, src *rng.Source) (*graph.Graph, [][]int) {
	if d < 1 || n%d != 0 {
		panic(fmt.Sprintf("gen: PlantedDomatic needs d >= 1 dividing n (got n=%d d=%d)", n, d))
	}
	classes := make([][]int, d)
	for v := 0; v < n; v++ {
		classes[v%d] = append(classes[v%d], v)
	}
	// Proposals may repeat a pair or (among the extra edges) be self-loops;
	// those are skipped. No draw depends on whether a proposal was kept.
	var edges [][2]int
	seen := make(map[[2]int]bool)
	propose := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if e := [2]int{u, v}; u != v && !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for u := 0; u < n; u++ {
		for c := 0; c < d; c++ {
			if c == u%d {
				continue
			}
			members := classes[c]
			w := members[src.Intn(len(members))]
			propose(u, w)
		}
	}
	for e := 0; e < extraEdges; e++ {
		propose(src.Intn(n), src.Intn(n))
	}
	return graph.NewFromEdges(n, edges), classes
}
