// Anytime local-search refiners: registry rows (tabu, anneal) that start
// from another solver's schedule and improve it under a deterministic
// candidate-move budget, on the incremental domination kernel: every
// candidate move is a read-only DropKeeps/SwapKeeps probe on a
// domset.Session — one pass over the moved nodes' neighborhoods, stopping at
// the first node the move would under-cover — and only accepted moves are
// applied, by the self-inverse Flip. Each phase keeps its session from its
// first visit on, so the full O(n + m) Reset is paid once per phase. It also
// keeps a bit that says its set is minimal, so a removal sweep over a phase
// no move has touched since its last complete sweep makes no probe.
//
// The move set, per phase of the schedule:
//
//   - removal: drop a redundant dominator, refunding duration x 1 battery;
//   - swap: replace a battery-scarce dominator with a rich non-member that
//     can afford the slot (the stepwise feasibility-preserving exchange of
//     the reconfiguration literature);
//   - extension: after each pass, pour the refunded budget back into
//     lifetime — greedy phases over the residual (sched.GreedyPhase),
//     then stretch existing phases as far as their weakest member allows.
//
// tabu and anneal share the engine and differ only in the acceptance
// policy: tabu admits non-worsening swaps and holds recently-removed nodes
// out for a tenure; anneal accepts worsening swaps with probability
// exp(-delta/T) under a budget-indexed geometric cooling schedule. Both
// return the best schedule seen, so the refined lifetime is >= the starting
// lifetime by construction, and both draw every random choice from the
// caller's rng.Source — same seed + same budget means a byte-identical
// schedule.

package solver

import (
	"math"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// DefaultRefineBudget is the candidate-move budget a refiner runs under
// when Options.Budget is unset. Moves cost O(deg), so the default keeps
// unconfigured refinement in the same cost band as a WHP retry loop.
const DefaultRefineBudget = 20000

// refinement is the budget contract the driver hands to refineSchedule.
type refinement struct {
	// Budget bounds the candidate moves the search may charge.
	Budget int
	// Cancel, when non-nil, is the sticky wall-clock/cooperative poll;
	// once it fires the search returns its best schedule so far.
	Cancel func() bool
	// Src drives every random choice.
	Src *rng.Source
	// Hooks receives one obs.Refine event per improvement pass.
	Hooks obs.Hooks
}

// movePolicy is the acceptance policy that distinguishes tabu from anneal.
// The engine proposes; the policy disposes.
type movePolicy interface {
	// admitAdd reports whether u may (re)enter a dominating set at
	// iteration it — the tabu check.
	admitAdd(u, it int) bool
	// noteLeave records that v left a set at iteration it.
	noteLeave(v, it int)
	// acceptSwap decides a feasible swap with scarcity delta d (< 0
	// improves the battery balance).
	acceptSwap(d float64, it int, src *rng.Source) bool
}

// tabuPolicy holds each removed node out of the dominating sets for a
// fixed tenure of iterations, preventing remove/re-add cycling, and admits
// only non-worsening swaps.
type tabuPolicy struct {
	tenure int
	until  []int // per-node iteration before which re-adding is tabu
}

func newTabuPolicy(n, _ int) movePolicy {
	return &tabuPolicy{tenure: 7 + n/32, until: make([]int, n)}
}

func (p *tabuPolicy) admitAdd(u, it int) bool                         { return it >= p.until[u] }
func (p *tabuPolicy) noteLeave(v, it int)                             { p.until[v] = it + p.tenure }
func (p *tabuPolicy) acceptSwap(d float64, _ int, _ *rng.Source) bool { return d <= 0 }

// annealPolicy accepts worsening swaps with probability exp(-d/T), cooling
// T geometrically from t0 to t1 as the iteration count approaches the
// budget — so the cooling schedule is indexed by spent budget, not wall
// clock, and a fixed (seed, budget) pair replays identically.
type annealPolicy struct {
	t0, t1 float64
	budget int
}

func newAnnealPolicy(_, budget int) movePolicy {
	return &annealPolicy{t0: 0.2, t1: 0.005, budget: budget}
}

func (p *annealPolicy) admitAdd(int, int) bool { return true }
func (p *annealPolicy) noteLeave(int, int)     {}
func (p *annealPolicy) acceptSwap(d float64, it int, src *rng.Source) bool {
	if d <= 0 {
		return true
	}
	t := p.t0 * math.Pow(p.t1/p.t0, float64(it)/float64(p.budget))
	return src.Float64() < math.Exp(-d/t)
}

// refineState is the mutable search state: the working schedule as
// parallel set/duration slices plus the per-node residual budgets, kept
// incrementally consistent across moves so no pass ever recomputes usage.
//
// sessions[p] holds phase p's set on a domination session from the phase's
// first visit on. Only refinePhase changes a set, and only through that
// session's Flips, so a later visit reuses the session instead of paying a
// Reset. sets[p] stays the schedule of record. It is written back after a
// visit that accepted a move, and after the first visit, which normalizes
// it to the session's sorted members; the write goes into a fresh slice,
// so a slice a snapshot or the start schedule shares is never written.
// The sessions are the search's memory: O(n) words each, for at most
// min(phases, budget/8 + 1) phases, because every complete visit charges
// at least 8 swap attempts, and at least one removal probe per member
// (about 105 sessions, 140 KB, for a greedy+tabu solve at n = 256 and
// budget 100 000).
//
// minimal[p] records that no member of phase p passes DropKeeps. A complete
// removal sweep sets it: a removal only lowers dominator counts, so a member
// that fails its probe keeps failing for the rest of the sweep, and at the
// end no member passes. An accepted swap clears it, and an appended phase
// starts with it clear. Nothing else changes a set: the removal sweep only
// removes from a set whose bit is clear.
type refineState struct {
	g        *graph.Graph
	k        int
	sets     [][]int
	durs     []int
	sessions []*domset.Session // per phase; nil until the phase's first visit
	minimal  []bool            // per phase; see above
	residual []int
	it       int // candidate moves charged so far
	budget   int
	cancel   func() bool
	src      *rng.Source
	pol      movePolicy
	observe  func(*domset.Session)
	members  []int // member buffer each phase's sweeps reuse
}

// newRefineState loads start into a search state, or returns nil when the
// start overdraws a battery. The state shares start's set slices.
func newRefineState(inst *instance.Instance, start *core.Schedule, rc *refinement,
	pol movePolicy, observe func(*domset.Session)) *refineState {
	st := &refineState{
		g:        inst.Graph,
		k:        inst.Tolerance(),
		sets:     make([][]int, 0, len(start.Phases)),
		durs:     make([]int, 0, len(start.Phases)),
		sessions: make([]*domset.Session, len(start.Phases)),
		minimal:  make([]bool, len(start.Phases)),
		residual: append([]int(nil), inst.Budgets...),
		budget:   rc.Budget,
		cancel:   rc.Cancel,
		src:      rc.Src,
		pol:      pol,
		observe:  observe,
	}
	for _, p := range start.Phases {
		st.sets = append(st.sets, p.Set)
		st.durs = append(st.durs, p.Duration)
		for _, v := range p.Set {
			st.residual[v] -= p.Duration
		}
	}
	for _, r := range st.residual {
		if r < 0 {
			return nil
		}
	}
	return st
}

func (st *refineState) exhausted() bool {
	return st.it >= st.budget || (st.cancel != nil && st.cancel())
}

func (st *refineState) lifetime() int {
	total := 0
	for _, d := range st.durs {
		total += d
	}
	return total
}

// snapshot captures the working schedule (dropping zero-duration phases).
// It shares each phase's set slice with the state, since refinePhase never
// writes into a set of record in place.
func (st *refineState) snapshot() *core.Schedule {
	out := &core.Schedule{Phases: make([]core.Phase, 0, len(st.sets))}
	for p, set := range st.sets {
		if st.durs[p] <= 0 || len(set) == 0 {
			continue
		}
		out.Phases = append(out.Phases, core.Phase{Set: set, Duration: st.durs[p]})
	}
	return out
}

// refineSchedule is the engine shared by tabu and anneal. observe, when
// non-nil, fires with the live session after every accepted in-phase move
// — the property-test hook asserting accepted moves preserve k-domination.
func refineSchedule(inst *instance.Instance, start *core.Schedule,
	rc *refinement, name string, pol movePolicy, observe func(*domset.Session)) *core.Schedule {
	st := newRefineState(inst, start, rc, pol, observe)
	if st == nil {
		// The start overdraws a battery — not a schedule this search can
		// reason about incrementally. Hand it back untouched; the driver's
		// ValidateWith gate reports it.
		return start
	}

	best := st.snapshot()
	bestLife := best.Lifetime()

	for pass := 0; !st.exhausted(); pass++ {
		st.pass()
		if life := st.lifetime(); life > bestLife {
			best = st.snapshot()
			bestLife = life
		}
		rc.Hooks.Emit(obs.Refine(name, pass, st.lifetime(), bestLife))
	}
	return best
}

// pass is one improvement pass: both sweeps over every phase, then the
// extension and the stretch.
func (st *refineState) pass() {
	for p := range st.sets {
		if st.exhausted() {
			break
		}
		st.refinePhase(p)
	}
	st.extend()
	st.stretch()
}

// refinePhase runs one removal sweep and one swap sweep over phase p on the
// phase's session, loading the set into a new session on the first visit.
// Every probe — accepted or rejected — charges one unit of budget.
func (st *refineState) refinePhase(p int) {
	if st.durs[p] <= 0 || len(st.sets[p]) == 0 {
		return
	}
	g, src, pol := st.g, st.src, st.pol
	sess := st.sessions[p]
	first := sess == nil
	if first {
		sess = domset.NewSession(g).Reset(st.sets[p], st.k, nil)
		st.sessions[p] = sess
	}
	if !sess.IsKDominating() {
		return // defensive: the driver only refines validated schedules
	}
	dur := st.durs[p]
	moved := false

	// Removal sweep: members in random order, so successive passes explore
	// different minimal subsets (the fixed degree order of sched.Minimalize
	// always lands on the same one). On a minimal set every probe would
	// fail, so the sweep skips them, and still draws the shuffle and charges
	// one move per member, as the probing sweep does.
	order := sess.AppendMembers(st.members[:0])
	src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	swept := true
	for _, v := range order {
		if st.exhausted() {
			swept = false
			break
		}
		st.it++
		if !st.minimal[p] && sess.DropKeeps(v) {
			sess.Flip(v)
			pol.noteLeave(v, st.it)
			st.residual[v] += dur
			moved = true
			if st.observe != nil {
				st.observe(sess)
			}
		}
	}
	if swept {
		st.minimal[p] = true
	}

	// Swap sweep: move the slot's load off battery-scarce dominators onto
	// rich non-members that can afford it. Feasibility is checked by the
	// session's read-only SwapKeeps probe; desirability by the policy on the
	// scarcity delta.
	cur := sess.AppendMembers(order[:0])
	st.members = cur
	attempts := 2 * len(cur)
	if attempts < 8 {
		attempts = 8
	}
	for a := 0; a < attempts && !st.exhausted(); a++ {
		st.it++
		if len(cur) == 0 || g.N() <= 1 {
			break
		}
		vi := src.Intn(len(cur))
		v := cur[vi]
		u := src.Intn(g.N())
		// The battery test comes first: it rejects most draws.
		if st.residual[u] < dur || u == v || sess.Contains(u) || !pol.admitAdd(u, st.it) {
			continue
		}
		// After the swap, u serves this slot at residual[u]-dur while v is
		// freed back to residual[v]+dur; prefer the assignment that leaves
		// the serving node richer.
		d := scarcity(st.residual[u]-dur) - scarcity(st.residual[v]+dur)
		if !pol.acceptSwap(d, st.it, src) {
			continue
		}
		if !sess.SwapKeeps(v, u) {
			continue
		}
		sess.Flip(v)
		sess.Flip(u)
		pol.noteLeave(v, st.it)
		st.residual[v] += dur
		st.residual[u] -= dur
		cur[vi] = u
		moved = true
		st.minimal[p] = false
		if st.observe != nil {
			st.observe(sess)
		}
	}

	if moved || first {
		st.sets[p] = sess.AppendMembers(make([]int, 0, len(cur)))
	}
}

// scarcity is the pressure of leaving a node at residual budget r: high
// when the battery is nearly drained, vanishing when plentiful.
func scarcity(r int) float64 { return 1 / float64(1+r) }

// extend pours refunded budget back into lifetime: sched.GreedyPhase
// phases over the nodes with positive residual until none exists. One
// budget unit per extraction attempt. A new phase gets its session on its
// first visit, like every other.
func (st *refineState) extend() {
	for !st.exhausted() {
		st.it++
		set, dur := sched.GreedyPhase(st.g, st.residual, st.k, nil)
		if set == nil {
			return
		}
		st.sets = append(st.sets, set)
		st.durs = append(st.durs, dur)
		st.sessions = append(st.sessions, nil)
		st.minimal = append(st.minimal, false)
	}
}

// stretch lengthens existing phases by whatever their weakest member still
// has — the residue extend could not turn into a full new phase.
func (st *refineState) stretch() {
	for p, set := range st.sets {
		if st.exhausted() {
			return
		}
		if st.durs[p] <= 0 || len(set) == 0 {
			continue
		}
		d := -1
		for _, v := range set {
			if d == -1 || st.residual[v] < d {
				d = st.residual[v]
			}
		}
		if d <= 0 {
			continue
		}
		st.it++
		st.durs[p] += d
		for _, v := range set {
			st.residual[v] -= d
		}
	}
}
