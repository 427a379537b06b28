package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/domatic"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Options configures the randomized algorithms.
type Options struct {
	// K is the color-range constant: nodes draw colors from a range of
	// width (local degree or energy quantity)/(K·ln n). The paper's
	// analysis needs K = 3 for the O(1/n) failure probability; smaller K
	// yields longer raw schedules that fail validation more often
	// (experiment E3 sweeps this trade-off). Zero means 3.
	K float64

	// Src is the randomness source. Nil means a fixed default seed, which
	// keeps casual use deterministic.
	Src *rng.Source
}

func (o Options) normalize() Options {
	if o.K <= 0 {
		o.K = 3
	}
	if o.Src == nil {
		o.Src = rng.New(1)
	}
	return o
}

// Uniform runs Algorithm 1 of the paper on graph g with uniform battery b:
// every node draws one color uniformly from [0, δ²_v/(K ln n)) where δ²_v is
// its two-hop minimum degree, and color class i is scheduled for b slots in
// interval [i·b, (i+1)·b). The returned raw schedule has one phase per color
// class; with probability 1-O(1/n) its first GuaranteedPhases(g, opt) phases
// are dominating sets (Lemma 4.2) and the schedule is then an O(log n)
// approximation (Theorem 4.3). Callers should TruncateInvalid, or resolve
// "uniform" in the internal/solver registry for the full retry loop.
func Uniform(g *graph.Graph, b int, opt Options) *Schedule {
	if b < 0 {
		panic(fmt.Sprintf("core: negative battery %d", b))
	}
	opt = opt.normalize()
	if b == 0 || g.N() == 0 {
		return &Schedule{}
	}
	p := domatic.RandomColoring(g, opt.K, opt.Src)
	return FromPartition(p, b)
}

// GuaranteedPhases returns the number of leading phases of a Uniform or
// FaultTolerant raw schedule that Lemma 4.2 covers: ⌊δ/(K ln n)⌋, at least 1.
func GuaranteedPhases(g *graph.Graph, opt Options) int {
	opt = opt.normalize()
	return domatic.GuaranteedClasses(g, opt.K)
}

// General runs Algorithm 2 of the paper on graph g with per-node batteries
// b: node v computes, via two message exchanges,
//
//	b̂_v  = max_{u∈N+[v]} b_u      τ_v  = Σ_{u∈N+[v]} b_u
//	b̂²_v = max_{u∈N+[v]} b̂_u      τ²_v = min_{u∈N+[v]} τ_u
//
// then draws b_v colors uniformly from [0, τ²_v/(K ln(b̂²_v·n))). The
// schedule activates color class t during slot t. With probability 1-O(1/n)
// the classes up to τ/(K ln(b_max·n)) are dominating (Lemma 5.2) and the
// truncated schedule is an O(log(b_max·n)) approximation (Theorem 5.3).
func General(g *graph.Graph, b []int, opt Options) *Schedule {
	if len(b) != g.N() {
		panic(fmt.Sprintf("core: %d batteries for %d nodes", len(b), g.N()))
	}
	for v, bv := range b {
		if bv < 0 {
			panic(fmt.Sprintf("core: negative battery b[%d] = %d", v, bv))
		}
	}
	opt = opt.normalize()
	n := g.N()

	// First exchange: b̂_v and τ_v over closed neighborhoods.
	bhat := make([]int, n)
	tau := make([]int, n)
	for v := 0; v < n; v++ {
		bhat[v] = b[v]
		tau[v] = b[v]
		for _, u := range g.Neighbors(v) {
			if b[u] > bhat[v] {
				bhat[v] = b[u]
			}
			tau[v] += b[u]
		}
	}
	// Second exchange: b̂²_v = max of neighbors' b̂, τ²_v = min of τ.
	bhat2 := make([]int, n)
	tau2 := make([]int, n)
	for v := 0; v < n; v++ {
		bhat2[v] = bhat[v]
		tau2[v] = tau[v]
		for _, u := range g.Neighbors(v) {
			if bhat[u] > bhat2[v] {
				bhat2[v] = bhat[u]
			}
			if tau[u] < tau2[v] {
				tau2[v] = tau[u]
			}
		}
	}

	// Color selection: node v is active in slot t iff t ∈ C_v. One buffer
	// holds each node's draws in turn.
	var drawn []int
	return FromSlots(n, func(v int) []int {
		drawn = DrawSlots(drawn[:0], b[v], GeneralColorRange(tau2[v], bhat2[v], n, opt.K), opt.Src)
		return drawn
	})
}

// drawScanMax is the longest draw DrawSlots de-duplicates by scanning what
// it already drew; longer draws use a set, so a huge battery stays linear.
const drawScanMax = 16

// DrawSlots appends to dst the slot set C_v that a node with battery b
// draws in Algorithm 2: b uniform colors from [0, r), in draw order, with
// repeats collapsed, since C_v is a set. General and the distributed
// protocol in package distsim both draw through it.
func DrawSlots(dst []int, b, r int, src *rng.Source) []int {
	start := len(dst)
	var seen map[int]bool
	if b > drawScanMax {
		seen = make(map[int]bool, b)
	}
	for ; b > 0; b-- {
		c := src.Intn(r)
		if seen[c] || seen == nil && slices.Contains(dst[start:], c) {
			continue
		}
		if seen != nil {
			seen[c] = true
		}
		dst = append(dst, c)
	}
	return dst
}

// FromSlots assembles an Algorithm 2 schedule over nodes 0..n-1, where
// slotsOf(v) lists the slots node v serves: one phase of duration 1 per
// slot up to the largest slot listed, empty slots included, each holding
// its nodes in increasing ID order. slotsOf is called once per node, in
// ID order, and its result is read before the next call, so the caller may
// reuse one buffer. General and distsim.GeneralSchedule assemble through it.
func FromSlots(n int, slotsOf func(v int) []int) *Schedule {
	var slots [][]int
	for v := 0; v < n; v++ {
		for _, t := range slotsOf(v) {
			for t >= len(slots) {
				slots = append(slots, nil)
			}
			slots[t] = append(slots[t], v)
		}
	}
	s := &Schedule{}
	for _, set := range slots {
		s.Phases = append(s.Phases, Phase{Set: set, Duration: 1})
	}
	return s
}

// GeneralColorRange returns the width of the color range a node with
// two-hop quantities τ²_v = tau2 and b̂²_v = bhat2 draws from in
// Algorithm 2: max(1, ⌊τ2/(K·ln(bhat2·n))⌋). Exported so the distributed
// protocol in package distsim computes exactly the same ranges.
func GeneralColorRange(tau2, bhat2, n int, k float64) int {
	arg := float64(bhat2) * float64(n)
	if arg < math.E {
		return max(1, tau2) // degenerate tiny instance: ln ≤ 1
	}
	r := int(float64(tau2) / (k * math.Log(arg)))
	if r < 1 {
		return 1
	}
	return r
}

// GeneralGuaranteedSlots returns the number of leading slots of a General
// raw schedule covered by Lemma 5.2: ⌊τ/(K ln(b_max·n))⌋ with
// τ = min_u Σ_{N+[u]} b_u, the Lemma 5.1 bound, at least 1 when any battery
// is positive. It is the color range of a node whose two-hop quantities are
// the global τ and b_max.
func GeneralGuaranteedSlots(g *graph.Graph, b []int, opt Options) int {
	opt = opt.normalize()
	if g.N() == 0 {
		return 0
	}
	bMax := slices.Max(b)
	if bMax <= 0 {
		return 0
	}
	return GeneralColorRange(GeneralUpperBound(g, b), bMax, g.N(), opt.K)
}

// FaultTolerant runs Algorithm 3 of the paper on graph g with uniform
// battery b and tolerance k: every node is active for the first ⌊b/2⌋ slots
// (during which the full node set trivially k-dominates, given δ ≥ k-1);
// afterwards, groups of k consecutive color classes of the Algorithm 1
// coloring are merged and each merged group is active for the remaining
// ⌈b/2⌉ slots. Merged groups are k-dominating whenever each constituent
// class is dominating, so with probability 1-O(1/n) the truncated schedule
// is an O(log n) approximation (Theorem 6.2). Requires δ ≥ k-1 for the
// problem to be feasible at all.
func FaultTolerant(g *graph.Graph, b, k int, opt Options) *Schedule {
	if k < 1 {
		panic(fmt.Sprintf("core: tolerance k = %d must be >= 1", k))
	}
	if b < 0 {
		panic(fmt.Sprintf("core: negative battery %d", b))
	}
	opt = opt.normalize()
	if b == 0 || g.N() == 0 || g.MinDegree()+1 < k {
		// Nothing to schedule, or some node has fewer than k closed
		// neighbors: the k-tolerant problem is infeasible (paper §2
		// restricts to δ ≥ k-1).
		return &Schedule{}
	}
	return FaultTolerantFrom(domatic.RandomColoring(g, opt.K, opt.Src), g.N(), b, k)
}

// FaultTolerantFrom assembles Algorithm 3's schedule from the color classes
// of an Algorithm 1 coloring of n nodes: all nodes serve the first ⌊b/2⌋
// slots, then each merged group of k consecutive classes serves ⌈b/2⌉
// slots. It returns the empty schedule when b = 0 or n = 0. FaultTolerant
// and distsim.FaultTolerantSchedule assemble through it.
func FaultTolerantFrom(classes [][]int, n, b, k int) *Schedule {
	s := &Schedule{}
	if b == 0 || n == 0 {
		return s
	}
	if b/2 > 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		s.Phases = append(s.Phases, Phase{Set: all, Duration: b / 2})
	}
	s.Phases = append(s.Phases, mergeGroups(classes, k, b-b/2)...)
	return s
}

// mergeGroups returns one phase of duration dur for each full run of k
// consecutive sets: the run's sorted, duplicate-free union, skipped when
// empty. A merged phase is k-dominating whenever each of its k sets is
// dominating.
func mergeGroups(sets [][]int, k, dur int) []Phase {
	var phases []Phase
	for start := 0; start+k <= len(sets); start += k {
		var merged []int
		for _, set := range sets[start : start+k] {
			merged = append(merged, set...)
		}
		if len(merged) == 0 {
			continue
		}
		slices.Sort(merged)
		phases = append(phases, Phase{Set: slices.Compact(merged), Duration: dur})
	}
	return phases
}

// GeneralFaultTolerant addresses the open problem the paper's conclusion
// poses ("an approximation algorithm for the general k-tolerant case"): it
// extends Algorithm 2 with the class-merging trick of Algorithm 3. Nodes
// draw b_v colors exactly as in General; then groups of k consecutive slot
// classes are merged into one phase of duration 1. A merged phase is
// k-dominating whenever its k constituent classes are each dominating, so
// the Lemma 5.2 guarantee yields ⌊τ/(K ln(b_max·n))⌋/k valid phases w.h.p.
// Since the Lemma 5.1/6.1-style optimum bound min_u Σ_{N+[u]} b_u / k also
// shrinks by k, the approximation ratio stays O(log(b_max·n)) for every k —
// matching Theorem 5.3's guarantee for the plain case. This is this
// repository's extension, not a result of the paper; experiment E14
// measures it.
//
// A node appearing in several classes of one merged group serves that phase
// only once, so per-node usage can only shrink relative to General and the
// battery constraint is preserved.
func GeneralFaultTolerant(g *graph.Graph, b []int, k int, opt Options) *Schedule {
	if k < 1 {
		panic(fmt.Sprintf("core: tolerance k = %d must be >= 1", k))
	}
	if g.N() > 0 && g.MinDegree()+1 < k {
		return &Schedule{}
	}
	raw := General(g, b, opt)
	slots := make([][]int, len(raw.Phases))
	for t, p := range raw.Phases {
		slots[t] = p.Set
	}
	return &Schedule{Phases: mergeGroups(slots, k, 1)}
}

// FaultTolerantGuarantee returns the w.h.p. lifetime target of
// FaultTolerant that its retry loop stops early at: the ⌊b/2⌋ all-nodes
// prefix plus ⌈b/2⌉ slots for each of the ⌊δ/(K ln n)⌋/k merged groups
// Lemma 4.2 covers.
func FaultTolerantGuarantee(g *graph.Graph, b, k int, opt Options) int {
	groups := GuaranteedPhases(g, opt) / k
	target := b / 2
	if groups > 0 {
		target += groups * (b - b/2)
	}
	return target
}
