// Package sched provides schedule post-processors that squeeze additional
// lifetime out of any feasible schedule — the engineering layer a deployment
// would put on top of the paper's randomized algorithms:
//
//   - Minimalize prunes each phase to a minimal k-dominating subset, freeing
//     battery without shortening the schedule;
//   - Extend appends greedily extracted dominating sets over the residual
//     batteries until none exists;
//   - Squeeze = Minimalize + Extend, the full pipeline.
//
// Experiment E17 measures how much lifetime these recover on top of
// Algorithms 1 and 2. All post-processors are centralized: they trade the
// paper's locality for lifetime, quantifying the price of distribution.
package sched

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
)

// Minimalize returns a copy of s in which every phase is pruned to a
// minimal k-dominating subset (dropping members whose removal preserves
// k-domination, highest-degree-last so well-connected nodes are kept).
// The lifetime is unchanged; the per-node usage can only decrease.
func Minimalize(g *graph.Graph, s *core.Schedule, k int) *core.Schedule {
	if k < 1 {
		panic(fmt.Sprintf("sched: tolerance k = %d must be >= 1", k))
	}
	out := &core.Schedule{}
	sess := domset.NewSession(g)
	for _, p := range s.Phases {
		pruned := minimalizeSet(sess, p.Set, k)
		out.Phases = append(out.Phases, core.Phase{Set: pruned, Duration: p.Duration})
	}
	return out
}

// minimalizeSet removes redundant members of a k-dominating set. Members
// are considered for removal in increasing degree order, so high-degree
// nodes (which cover many others) survive. The returned slice is freshly
// allocated and sorted.
//
// Each candidate is tested with a read-only DropKeeps probe on the
// session — O(deg(candidate)), stopping at the first node the removal would
// under-cover — and flipped out only when it passes, instead of a full
// recount per candidate.
func minimalizeSet(sess *domset.Session, set []int, k int) []int {
	g := sess.Graph()
	if !sess.Reset(set, k, nil).IsKDominating() {
		// Not dominating to begin with (possible for raw randomized
		// schedules): leave untouched — Validate/Truncate is the caller's
		// tool for that.
		return append([]int(nil), set...)
	}
	order := append([]int(nil), set...)
	sort.Slice(order, func(i, j int) bool { return g.Degree(order[i]) < g.Degree(order[j]) })
	for _, candidate := range order {
		if !sess.Contains(candidate) {
			continue // duplicate member already handled
		}
		if sess.DropKeeps(candidate) {
			sess.Flip(candidate)
		}
	}
	return sess.AppendMembers(nil)
}

// Extend appends phases to s while the residual batteries still admit a
// k-dominating set: each appended phase is a greedy k-dominating set over
// nodes with remaining budget, run for as many slots as its weakest member
// allows. The result is feasible whenever s was.
func Extend(g *graph.Graph, s *core.Schedule, batteries []int, k int) *core.Schedule {
	if len(batteries) != g.N() {
		panic(fmt.Sprintf("sched: %d batteries for %d nodes", len(batteries), g.N()))
	}
	if k < 1 {
		panic(fmt.Sprintf("sched: tolerance k = %d must be >= 1", k))
	}
	out := &core.Schedule{Phases: append([]core.Phase(nil), s.Phases...)}
	residual := make([]int, g.N())
	copy(residual, batteries)
	usage := s.Usage(g.N())
	for v := range residual {
		residual[v] -= usage[v]
		if residual[v] < 0 {
			panic(fmt.Sprintf("sched: schedule overdraws node %d", v))
		}
	}
	appendGreedyPhases(g, out, residual, k, nil)
	return out
}

// appendGreedyPhases appends GreedyPhase's phases to out until the residual
// budgets admit no further one. residual is consumed in place.
func appendGreedyPhases(g *graph.Graph, out *core.Schedule, residual []int, k int, alive []bool) {
	for {
		set, dur := GreedyPhase(g, residual, k, alive)
		if set == nil {
			return
		}
		out.Phases = append(out.Phases, core.Phase{Set: set, Duration: dur})
	}
}

// GreedyPhase extracts one phase from the residual budgets: a greedy
// k-dominating set over the nodes with positive residual (restricted to
// alive nodes when alive is non-nil — dead nodes can neither serve nor need
// coverage), run for as many slots as its weakest member allows. The phase
// is charged to residual in place. It returns a nil set when no alive node
// is left to cover or the residual network admits no k-dominating set.
func GreedyPhase(g *graph.Graph, residual []int, k int, alive []bool) (set []int, dur int) {
	mask := maskPool.Get().(*[]bool)
	defer maskPool.Put(mask)
	if cap(*mask) < len(residual) {
		*mask = make([]bool, len(residual))
	}
	allowed := (*mask)[:len(residual)]
	for v, r := range residual {
		allowed[v] = r > 0
	}
	set = domset.GreedyK(g, k, allowed, alive)
	if len(set) == 0 {
		return nil, 0
	}
	dur = residual[set[0]]
	for _, v := range set[1:] {
		dur = min(dur, residual[v])
	}
	for _, v := range set {
		residual[v] -= dur
	}
	return set, dur
}

// maskPool holds GreedyPhase's allowed masks, which it rewrites whole on
// every call. GreedyK keeps no reference to its mask, so a mask goes back
// to the pool as soon as the call returns.
var maskPool = sync.Pool{New: func() any { return new([]bool) }}

// Replan builds a fresh schedule for a degraded network from scratch: greedy
// k-dominating phases over the residual budgets, where only alive nodes may
// serve and only alive nodes need coverage. This is the centralized
// escalation step of the self-healing runtime (package heal) — what a sink
// with a global view would broadcast after local patching gives up. It
// returns an empty schedule when the residual network admits no k-dominating
// set at all.
func Replan(g *graph.Graph, residual []int, k int, alive []bool) *core.Schedule {
	if len(residual) != g.N() {
		panic(fmt.Sprintf("sched: %d residuals for %d nodes", len(residual), g.N()))
	}
	if k < 1 {
		panic(fmt.Sprintf("sched: tolerance k = %d must be >= 1", k))
	}
	out := &core.Schedule{}
	rem := append([]int(nil), residual...)
	appendGreedyPhases(g, out, rem, k, alive)
	return out
}

// Squeeze is the full post-processing pipeline: prune every phase to a
// minimal set, then extend over the freed plus unused budget.
func Squeeze(g *graph.Graph, s *core.Schedule, batteries []int, k int) *core.Schedule {
	return Extend(g, Minimalize(g, s, k), batteries, k)
}
