// Package domatic implements domatic partitions — collections of pairwise
// disjoint dominating sets — which the paper turns into cluster-lifetime
// schedules. It provides:
//
//   - the randomized coloring at the heart of the paper's Algorithm 1 (each
//     node picks a color in a range governed by its two-hop minimum degree;
//     with the right range every color class is dominating w.h.p.),
//   - the greedy partition (repeatedly extract a dominating set from unused
//     nodes) whose approximation ratio Feige et al. bound by O(√n log n) and
//     whose Ω(√n) worst case the FujitaTrap family witnesses,
//   - an exact domatic-number solver by backtracking for small graphs, and
//   - the structural bounds δ+1 (upper) and ≈(δ+1)/ln Δ (Feige et al. lower).
//
// Note that the maximum number of pairwise disjoint dominating sets equals
// the classical domatic number: leftover nodes can always be folded into an
// existing dominating set without breaking domination.
package domatic

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Partition is a collection of pairwise disjoint node sets, each intended to
// be a dominating set.
type Partition [][]int

// Verify checks that p consists of pairwise disjoint dominating sets of g.
// It returns nil on success and a descriptive error otherwise.
func (p Partition) Verify(g *graph.Graph) error {
	used := make([]bool, g.N())
	for i, set := range p {
		for _, v := range set {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("domatic: set %d contains out-of-range node %d", i, v)
			}
			if used[v] {
				return fmt.Errorf("domatic: node %d appears in more than one set", v)
			}
			used[v] = true
		}
		if !domset.IsDominating(g, set, nil) {
			return fmt.Errorf("domatic: set %d is not dominating", i)
		}
	}
	return nil
}

// UpperBound returns δ+1, the classical upper bound on the domatic number:
// a minimum-degree node has only δ+1 closed neighbors to be dominated by,
// and disjoint dominating sets must each take one.
func UpperBound(g *graph.Graph) int {
	if g.N() == 0 {
		return 0
	}
	return g.MinDegree() + 1
}

// FeigeLowerBound returns the Feige–Halldórsson–Kortsarz–Srinivasan
// existential lower bound (1-o(1))(δ+1)/ln Δ, evaluated without the o(1)
// term, as a float. For Δ <= 1 (no meaningful ln) it returns δ+1.
func FeigeLowerBound(g *graph.Graph) float64 {
	d := g.MaxDegree()
	if d <= 1 {
		return float64(g.MinDegree() + 1)
	}
	return float64(g.MinDegree()+1) / math.Log(float64(d))
}

// Extractor produces a dominating set of g using only allowed nodes, or nil
// if none exists. domset.GreedyRestricted and domset.MinimumExact (wrapped)
// are the two extractors the experiments compare.
type Extractor func(g *graph.Graph, allowed []bool) []int

// GreedyExtractor adapts the set-cover greedy to the Extractor interface.
func GreedyExtractor(g *graph.Graph, allowed []bool) []int {
	return domset.GreedyRestricted(g, allowed, nil)
}

// MinimumExtractor adapts the exact branch-and-bound minimum dominating set.
// Exponential; use on small graphs only. This is the "pick a minimum
// dominating set each round" greedy the Fujita lower bound defeats.
func MinimumExtractor(g *graph.Graph, allowed []bool) []int {
	return domset.MinimumExact(g, allowed)
}

// ConstrainedExtractor is a scarcity-aware dominating-set extractor in the
// spirit of the "most constrained – minimally constraining" heuristic of
// Slijepčević & Potkonjak (the paper's reference on disjoint set covers):
// each step adds the allowed node whose closed neighborhood covers the
// uncovered nodes with the fewest remaining allowed dominators, weighting an
// uncovered node u by 1/|allowed dominators of u|. Intuitively it reserves
// plentiful dominators for later sets, which tends to extract more disjoint
// dominating sets than the plain coverage greedy on irregular graphs.
func ConstrainedExtractor(g *graph.Graph, allowed []bool) []int {
	n := g.N()
	need := make([]bool, n)
	remaining := n
	for v := range need {
		need[v] = true
	}
	// supply[u] = number of allowed nodes in N+[u] (how scarce u's
	// domination options are).
	supply := make([]int, n)
	for u := 0; u < n; u++ {
		if allowed == nil || allowed[u] {
			supply[u]++
		}
		for _, w := range g.Neighbors(u) {
			if allowed == nil || allowed[w] {
				supply[u]++
			}
		}
		if need[u] && supply[u] == 0 {
			return nil
		}
	}
	weight := func(v int) float64 {
		total := 0.0
		if need[v] {
			total += 1 / float64(supply[v])
		}
		for _, u := range g.Neighbors(v) {
			if need[u] {
				total += 1 / float64(supply[u])
			}
		}
		return total
	}
	var set []int
	for remaining > 0 {
		best, bestW := -1, 0.0
		for v := 0; v < n; v++ {
			if allowed != nil && !allowed[v] {
				continue
			}
			if w := weight(v); w > bestW {
				best, bestW = v, w
			}
		}
		if best == -1 {
			return nil
		}
		set = append(set, best)
		if need[best] {
			need[best] = false
			remaining--
		}
		for _, u := range g.Neighbors(best) {
			if need[u] {
				need[u] = false
				remaining--
			}
		}
	}
	sort.Ints(set)
	return set
}

// GreedyPartition repeatedly extracts a dominating set from the not-yet-used
// nodes until no further dominating set exists, and returns the resulting
// partition. An empty extraction, which only the empty graph allows, also
// ends it, since it uses up no node. With GreedyExtractor this is the
// natural greedy algorithm whose approximation ratio Feige et al. bound by
// O(√n log n).
func GreedyPartition(g *graph.Graph, extract Extractor) Partition {
	allowed := make([]bool, g.N())
	for i := range allowed {
		allowed[i] = true
	}
	var p Partition
	for {
		set := extract(g, allowed)
		if len(set) == 0 {
			return p
		}
		for _, v := range set {
			if !allowed[v] {
				panic(fmt.Sprintf("domatic: extractor reused node %d", v))
			}
			allowed[v] = false
		}
		p = append(p, set)
	}
}

// UniformColorRange returns the width of the color range a node with
// two-hop minimum degree d2 draws from in Algorithm 1:
// max(1, ⌊d2/(k·ln n)⌋). Exported so the distributed protocol in package
// distsim computes byte-for-byte the same ranges as the centralized code.
func UniformColorRange(d2, n int, k float64) int {
	if n <= 1 {
		return 1
	}
	r := int(float64(d2) / (k * math.Log(float64(n))))
	if r < 1 {
		return 1
	}
	return r
}

// RandomColoring performs the randomized coloring underlying the paper's
// Algorithm 1: node v draws a uniform color in [0, R_v) where
// R_v = max(1, ⌊δ²_v / (K ln n)⌋) and δ²_v = min_{u ∈ N+[v]} δ_u is the
// two-hop minimum degree. It returns the color classes (one slice per color,
// indexed 0..maxColor). With K = 3, all classes with index below
// δ/(K ln n) are dominating with probability 1 - O(1/n) (paper Lemma 4.2).
//
// Classes are *candidate* dominating sets: callers must verify (or use
// ValidPrefix) because the guarantee is probabilistic.
func RandomColoring(g *graph.Graph, k float64, src *rng.Source) Partition {
	if k <= 0 {
		panic("domatic: coloring constant K must be positive")
	}
	d2 := g.TwoHopMinDegree()
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = src.Intn(UniformColorRange(d2[v], g.N(), k))
	}
	return Classes(colors)
}

// Classes groups nodes by color: class c lists, in increasing ID order, the
// nodes v with colors[v] = c, for every c from 0 to the largest color. It
// returns nil when there are no nodes. The centralized colorings and the
// distributed Algorithm 1 protocol in package distsim all group through it.
func Classes(colors []int) Partition {
	if len(colors) == 0 {
		return nil
	}
	p := make(Partition, slices.Max(colors)+1)
	for v, c := range colors {
		p[c] = append(p[c], v)
	}
	return p
}

// RandomColoringGlobal is the ablation counterpart of RandomColoring: every
// node draws from the same range [0, δ/(k ln n)) governed by the *global*
// minimum degree δ instead of the local two-hop minimum δ²_v. It carries the
// same Lemma 4.2 guarantee but forgoes the extra classes high-degree regions
// could sustain — experiment E13 quantifies the difference on irregular
// graphs. Computing δ needs global information, so this variant is not
// achievable in a constant number of communication rounds.
func RandomColoringGlobal(g *graph.Graph, k float64, src *rng.Source) Partition {
	if k <= 0 {
		panic("domatic: coloring constant K must be positive")
	}
	r := UniformColorRange(g.MinDegree(), g.N(), k)
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = src.Intn(r)
	}
	return Classes(colors)
}

// GuaranteedClasses returns the number of leading color classes that
// Lemma 4.2 guarantees to be dominating w.h.p. after RandomColoring with
// constant k: max(1, ⌊δ/(k ln n)⌋), the color range of a node whose two-hop
// minimum degree is δ. Classes above this index are drawn only by nodes
// whose two-hop minimum degree exceeds δ and carry no guarantee.
func GuaranteedClasses(g *graph.Graph, k float64) int {
	return UniformColorRange(g.MinDegree(), g.N(), k)
}

// ValidPrefix returns the number of leading classes of p that are dominating
// sets of g: the usable schedule prefix after a randomized coloring.
func ValidPrefix(g *graph.Graph, p Partition) int {
	for i, set := range p {
		if !domset.IsDominating(g, set, nil) {
			return i
		}
	}
	return len(p)
}

// CountDominating returns how many classes of p are dominating sets of g
// (not necessarily a prefix).
func CountDominating(g *graph.Graph, p Partition) int {
	count := 0
	for _, set := range p {
		if domset.IsDominating(g, set, nil) {
			count++
		}
	}
	return count
}
