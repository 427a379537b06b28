// The grid solver: pattern-based dominating-set tiling for instances
// whose structure detection certified a grid or torus embedding. It is
// the first consumer of the typed instance model's Meta — orders of
// magnitude faster than the WHP retry loop on those instances, because it
// never searches: the dominating sets are read off the embedding.
//
// The pattern is the classic one (used by Fata, Smith & Sundaram,
// "Distributed Dominating Sets on Grids"): the diagonal 5-coloring
// class(r, c) = (r + 2c) mod 5 partitions the infinite grid into five
// disjoint perfect dominating sets — every cell is adjacent (in the
// 4-neighborhood, including itself) to exactly one cell of each class.
// On a finite grid the pattern leaks at the boundary (a torus leaks at
// the wrap seam unless both dimensions are ≡ 0 mod 5), so each translate
// is repaired by greedily covering its undominated cells with the
// richest-residual closed neighbor. The schedule phase-rotates across the
// five repaired translates — each phase runs as long as its weakest
// member's residual battery allows — and finally pours any leftover
// budget into greedy phases, so the lifetime approaches 5b on uniform
// budget b (within a boundary-repair term) against the n/5-node optimum
// per phase.

package solver

import (
	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/sched"
)

const gridTranslates = 5

// gridGenerate is the grid row's generate. Off-grid instances (or
// k-tolerant ones — the 5-coloring is a 1-domination pattern) fall back to
// the greedy baseline, so "grid" is always safe to request; the auto
// portfolio only routes to it when the fast path actually applies.
func gridGenerate(inst *instance.Instance, _ Spec, _ *rng.Source) *core.Schedule {
	m := inst.Meta()
	if (m.Class == instance.Grid || m.Class == instance.Torus) && inst.Tolerance() == 1 {
		return gridSchedule(inst, m)
	}
	return sched.Replan(inst.Graph, inst.Budgets, inst.Tolerance(), nil)
}

// gridSchedule builds the phase-rotated 5-translate schedule from the
// instance's certified embedding. Deterministic: no randomness anywhere.
//
// Each phase runs ONE slot of one translate: long phases would let the
// boundary repairs — which borrow cells from the other four translates —
// drain whole neighborhoods before their own translate gets a turn, and a
// single unrepairable hole voids an entire translate. Slot-by-slot
// rotation spreads the repair drain one unit at a time across the
// richest-residual neighbors, so the rotation degrades at the very end of
// the battery horizon instead of collapsing after the first translate.
func gridSchedule(inst *instance.Instance, m *instance.Meta) *core.Schedule {
	g := inst.Graph
	n := g.N()
	residual := append([]int(nil), inst.Budgets...)
	class := make([]int8, n)
	for v := 0; v < n; v++ {
		r, c := int(m.Coords[v])/m.Cols, int(m.Coords[v])%m.Cols
		class[v] = int8((r + 2*c) % gridTranslates)
	}

	s := &core.Schedule{}

	// One persistent incremental session per translate: the initial
	// O(n+m) fold is paid once per translate, and each cycle only flips the
	// handful of cells that died or got rebalanced — O(changes · deg), not
	// O(n+m).
	type translate struct {
		sess    *domset.Session
		repairs []int // current off-class members, rebalanced every cycle
		dead    bool  // an unrepairable hole is permanent: residuals only fall
	}
	ts := make([]translate, gridTranslates)
	set := make([]int, 0, n/gridTranslates+4)
	for t := range ts {
		set = set[:0]
		for v := 0; v < n; v++ {
			if class[v] == int8(t) && residual[v] > 0 {
				set = append(set, v)
			}
		}
		ts[t].sess = domset.NewSession(g).Reset(set, 1, nil)
	}

	var members, holes []int
	// repair covers every undominated cell with the richest-residual
	// non-member of its closed neighborhood, spreading the boundary drain
	// across translates; false means some hole's neighborhood is fully
	// drained and the translate is unusable.
	repair := func(tr *translate) bool {
		holes = tr.sess.AppendUndominated(holes[:0])
		for _, v := range holes {
			if tr.sess.Dominators(v) > 0 {
				continue // an earlier repair covered it
			}
			best, bestR := -1, 0
			if residual[v] > 0 && !tr.sess.Contains(v) {
				best, bestR = v, residual[v]
			}
			for _, w32 := range g.Neighbors(v) {
				if w := int(w32); !tr.sess.Contains(w) && residual[w] > bestR {
					best, bestR = w, residual[w]
				}
			}
			if best == -1 {
				return false
			}
			tr.sess.Flip(best)
			tr.repairs = append(tr.repairs, best)
		}
		return tr.sess.IsKDominating()
	}

	for progressed := true; progressed; {
		progressed = false
		for t := range ts {
			tr := &ts[t]
			if tr.dead {
				continue
			}
			// Another translate's repairs may have drained our members
			// since our last turn; drop them before covering holes.
			members = tr.sess.AppendMembers(members[:0])
			for _, v := range members {
				if residual[v] <= 0 {
					tr.sess.Flip(v)
				}
			}
			if !repair(tr) {
				tr.dead = true
				continue
			}
			members = tr.sess.AppendMembers(members[:0])
			if len(members) == 0 {
				tr.dead = true
				continue
			}
			for _, v := range members {
				residual[v]--
			}
			s.Phases = append(s.Phases, core.Phase{
				Set: append([]int(nil), members...), Duration: 1,
			})
			progressed = true
			// Drop drained members, then release surviving repairs so the
			// next cycle re-picks the richest boundary neighbors instead
			// of grinding the same cells down.
			for _, v := range members {
				if residual[v] == 0 {
					tr.sess.Flip(v)
				}
			}
			for _, v := range tr.repairs {
				if tr.sess.Contains(v) {
					tr.sess.Flip(v)
				}
			}
			tr.repairs = tr.repairs[:0]
		}
	}

	// Pour whatever the rotation left behind (boundary-repair residue,
	// uneven budgets) into greedy phases — but only when the surviving
	// cells can still dominate at all. A dominating set needs at least
	// n/(Δ+1) nodes, and the rotation usually drains well below that, so
	// the size bound short-circuits the O(n+m) dominating-set check (which
	// itself short-circuits an unconditional Replan costing more than the
	// whole rotation).
	set = set[:0]
	maxDeg := 0
	for v := 0; v < n; v++ {
		if residual[v] > 0 {
			set = append(set, v)
		}
		if d := len(g.Neighbors(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if len(set)*(maxDeg+1) >= n && domset.IsKDominating(g, set, 1, nil) {
		if rest := sched.Replan(g, residual, 1, nil); len(rest.Phases) > 0 {
			s.Phases = append(s.Phases, rest.Phases...)
		}
	}
	return s
}
