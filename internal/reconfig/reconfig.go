// Package reconfig plans zero-downtime schedule transitions for dynamic
// graphs: given a running schedule at time t, a typed graph/budget delta
// (graph.Delta), and the residual energies the old schedule has left behind,
// Compute produces a transition plan whose first slots are overlap windows —
// the outgoing dominator set stays awake alongside the incoming schedule, its
// extra slots charged against residual budgets — so domination is never lost
// across the cutover even when sleeping nodes miss the install (the wake-loss
// model of Simulate).
//
// The planner degrades gracefully instead of failing: when budgets cannot
// afford the requested overlap it walks a ladder of shorter windows down to a
// pure swap, and when the requested solver cannot run on the degraded
// instance (non-uniform residuals, dead nodes) it falls back to the same
// greedy recruitment `heal` escalates to (sched.Replan). Every emitted plan
// is verified slot by slot with a domset.Session before it is returned; a plan
// that would lose domination is truncated and flagged as a violation rather
// than handed out silently.
//
// The transitions follow Censor-Hillel & Rabie's reconfiguration schedules
// (arXiv:1810.02106): they preserve the invariant at every intermediate
// step, not just at the endpoints.
package reconfig

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/solver"
)

// DefaultOverlap is the overlap window (in slots) the service layer requests
// when the client does not specify one: long enough that a node missing one
// wake-up is still covered by the outgoing set, short enough to cost little
// residual energy.
const DefaultOverlap = 2

// Request describes one reconfiguration: the running schedule, where it is,
// what changes, and how the incoming schedule should be computed.
type Request struct {
	// Old is the running schedule, in pre-delta node IDs.
	Old *core.Schedule
	// At is the slot (0-based, in Old's timeline) the transition plan takes
	// over from; slots [0, At) of Old are already spent. At past Old's
	// lifetime means the old schedule is exhausted — nothing is awake to
	// overlap with.
	At int
	// Alive, when non-nil, marks pre-delta nodes that are still up. Nodes
	// added by the delta are always alive.
	Alive []bool
	// Delta is the structural/budget change to apply.
	Delta graph.Delta
	// Overlap is the requested overlap window in slots; the planner degrades
	// to shorter windows when residuals cannot pay for it. 0 requests a pure
	// swap; negative is an error.
	Overlap int
	// Solver names the registry algorithm for the incoming schedule. Empty
	// means solver.NameGreedy. Algorithms that cannot run on the post-delta
	// instance (non-uniform residuals, dead nodes) fall back to
	// sched.Replan, flagging the plan degraded.
	Solver string
	// Incoming, when non-nil, is a precomputed incoming schedule for the
	// post-delta instance (post-delta node IDs), and the solver ladder is
	// skipped entirely — this is how the sharded serving path re-solves only
	// the shards a delta touched and hands the stitched result in. The
	// overlap ladder still runs: contributors are the outgoing nodes that
	// can afford extra awake slots beyond what Incoming already charges
	// them, and the assembled plan is verified slot by slot as usual.
	Incoming *core.Schedule
	// Seed, Tries drive the randomized solvers; ignored by greedy.
	Seed  uint64
	Tries int
	// Cancel, polled between ladder rungs and solver retries, aborts with
	// solver.ErrCanceled.
	Cancel func() bool
	// Hooks receives one obs.Reconfig event per Compute call.
	Hooks obs.Hooks
}

// Plan is a verified transition: the post-delta world plus the schedule that
// carries it, whose leading Overlap slots keep the affordable part of the
// outgoing set awake alongside the incoming sets.
type Plan struct {
	// Graph and Budgets are the post-delta instance the plan runs on;
	// Budgets are residual capacities at the moment of cutover, and the
	// plan's total usage never exceeds them.
	Graph   *graph.Graph
	Budgets []int
	// Alive marks post-delta nodes that are up (nil = all).
	Alive []bool
	// Mapping is the old→new node ID mapping of the delta (-1 = removed),
	// for carrying per-node state across the transition.
	Mapping []int
	// Phases is the transition schedule, in post-delta IDs.
	Phases []core.Phase
	// Overlap is the achieved overlap window in slots (<= requested).
	Overlap int
	// OverlapEnergy is the total extra slots charged to outgoing nodes that
	// were kept awake beyond what the incoming schedule asked of them.
	OverlapEnergy int
	// Degraded reports that the plan fell short of the request: a shorter
	// overlap window than asked, or a fallback from the requested solver to
	// greedy recruitment.
	Degraded bool
	// Violation reports that domination could not be preserved: the ladder
	// bottomed out with no feasible incoming schedule for a network that
	// still has alive nodes (Phases is then empty), or slot-by-slot
	// verification truncated the plan.
	Violation bool
}

// Schedule wraps the transition phases as a core.Schedule.
func (p *Plan) Schedule() *core.Schedule { return &core.Schedule{Phases: p.Phases} }

// Lifetime returns the transition schedule's total duration.
func (p *Plan) Lifetime() int { return p.Schedule().Lifetime() }

// mode is the obs.Reconfig outcome label.
func (p *Plan) mode() string {
	switch {
	case p.Violation:
		return "violation"
	case p.Degraded:
		return "degraded"
	}
	return "clean"
}

// Compute plans the transition: the request checks, then req.Delta.Apply on
// inst's graph and budgets, then ComputeApplied's planner. The algorithm:
//
//  1. Apply the delta, producing the post-delta graph, residual budgets, and
//     ID mapping; remap the alive mask (added nodes are alive).
//  2. The outgoing set O is the old schedule's active set at slot At,
//     remapped and filtered to alive survivors.
//  3. Walk the overlap ladder w = Overlap … 0: the members of O that can
//     afford w extra slots are the contributors; charge them w upfront,
//     solve the incoming schedule against the charged residuals, and if one
//     exists, union the contributors into its first w slots. Charging before
//     solving is what makes the union feasible: overlap usage plus incoming
//     usage cannot exceed the residual budget.
//  4. Verify the assembled plan slot by slot with a domset.Session (every
//     positive phase k-dominates the alive nodes, usage within budgets);
//     truncate and flag a violation if verification ever fails.
//  5. If even w = 0 admits no incoming schedule, the plan is empty — a
//     violation unless no alive node remains to need coverage.
//
// Errors are reserved for malformed requests (bad delta, unknown solver,
// negative overlap) and cancellation; infeasibility is reported in the Plan,
// mirroring how core treats infeasible-but-well-formed instances.
//
// inst is the pre-delta instance at the moment of cutover: its Budgets are
// the residual energies the old schedule has left behind (typically
// original budgets minus Old.UsagePrefix(n, At)), and its tolerance is the
// domination requirement the transition must preserve. The delta's budget
// updates revise those residuals.
func Compute(inst *instance.Instance, req Request) (*Plan, error) {
	if err := req.check(inst); err != nil {
		return nil, err
	}
	g2, budgets2, mapping, err := req.Delta.Apply(inst.Graph, inst.Budgets)
	if err != nil {
		return nil, fmt.Errorf("reconfig: %w", err)
	}
	return ComputeApplied(inst, g2, budgets2, mapping, req)
}

// ComputeApplied is Compute for a caller that has already applied the
// delta: g2, budgets2 and mapping are what req.Delta.Apply(inst.Graph,
// inst.Budgets) returned, and req.Delta is not read. It runs the same
// request checks and the rest of the planner, from the alive mask's remap
// on, so it returns the same plan. The plan shares g2, budgets2 and
// mapping; nothing writes them.
func ComputeApplied(inst *instance.Instance, g2 *graph.Graph, budgets2, mapping []int, req Request) (*Plan, error) {
	if err := req.check(inst); err != nil {
		return nil, err
	}
	k := inst.Tolerance()
	solverName := req.solverName()

	var alive2 []bool
	if req.Alive != nil {
		alive2 = make([]bool, g2.N())
		for i := range alive2 {
			alive2[i] = true // added nodes
		}
		for v, m := range mapping {
			if m >= 0 {
				alive2[m] = req.Alive[v]
			}
		}
	}

	// The outgoing set: whoever the old schedule has awake at the cutover
	// slot, remapped into the new ID space and filtered to alive survivors.
	var outgoing []int
	for _, v := range req.Old.ActiveAt(req.At) {
		if v < 0 || v >= len(mapping) || mapping[v] < 0 {
			continue
		}
		nv := mapping[v]
		if alive2 != nil && !alive2[nv] {
			continue
		}
		outgoing = append(outgoing, nv)
	}
	sort.Ints(outgoing)

	plan := &Plan{Graph: g2, Budgets: budgets2, Alive: alive2, Mapping: mapping}

	// With a precomputed incoming schedule, a contributor's headroom is what
	// its budget leaves beyond the incoming schedule's own charge.
	var preUsage []int
	if req.Incoming != nil {
		preUsage = req.Incoming.Usage(g2.N())
	}

	fellBack := false
	for w := req.Overlap; w >= 0; w-- {
		if req.Cancel != nil && req.Cancel() {
			return nil, solver.ErrCanceled
		}
		// Contributors: outgoing nodes that can afford w extra awake slots.
		var contributors []int
		for _, v := range outgoing {
			headroom := budgets2[v]
			if preUsage != nil {
				headroom -= preUsage[v]
			}
			if headroom >= w {
				contributors = append(contributors, v)
			}
		}
		if w > 0 && len(contributors) == 0 {
			continue
		}
		charged := append([]int(nil), budgets2...)
		for _, v := range contributors {
			charged[v] -= w
		}

		incoming, fb := req.Incoming, false
		if incoming == nil {
			var err error
			incoming, fb, err = solveIncoming(g2, charged, k, alive2, solverName, req)
			if err != nil {
				return nil, err
			}
		}
		if incoming.Lifetime() == 0 {
			continue
		}
		fellBack = fellBack || fb

		achieved := w
		if lt := incoming.Lifetime(); achieved > lt {
			achieved = lt
		}
		plan.Phases, plan.OverlapEnergy = weave(incoming, contributors, achieved)
		plan.Overlap = achieved
		plan.Degraded = fellBack || achieved < req.Overlap
		break
	}

	if plan.Phases == nil {
		// Ladder exhausted: no incoming schedule even as a pure swap. If
		// nobody alive remains, the empty plan is vacuously fine; otherwise
		// domination is lost and we say so.
		plan.Violation = aliveCount(g2, alive2) > 0
	} else if bad := verifyIndex(g2, plan.Phases, budgets2, k, alive2); bad >= 0 {
		// Safety net: construction should make this unreachable, but a plan
		// that loses domination must never leave this package unflagged.
		plan.Phases = plan.Phases[:bad]
		plan.Violation = true
	}

	req.Hooks.Emit(obs.Reconfig(req.At, plan.Overlap, plan.OverlapEnergy, plan.mode()))
	return plan, nil
}

// check runs the request checks Compute and ComputeApplied share.
func (req *Request) check(inst *instance.Instance) error {
	if inst == nil {
		return fmt.Errorf("reconfig: nil instance")
	}
	if req.Old == nil {
		return fmt.Errorf("reconfig: nil old schedule")
	}
	if req.At < 0 {
		return fmt.Errorf("reconfig: at = %d must be >= 0", req.At)
	}
	if req.Overlap < 0 {
		return fmt.Errorf("reconfig: overlap = %d must be >= 0", req.Overlap)
	}
	if g := inst.Graph; g != nil && req.Alive != nil && len(req.Alive) != g.N() {
		return fmt.Errorf("reconfig: %d alive flags for %d nodes", len(req.Alive), g.N())
	}
	if _, err := solver.Resolve(req.solverName()); err != nil {
		return fmt.Errorf("reconfig: %w", err)
	}
	return nil
}

// solverName is the incoming schedule's algorithm: Solver, or greedy.
func (req *Request) solverName() string {
	if req.Solver == "" {
		return solver.NameGreedy
	}
	return req.Solver
}

// solveIncoming computes the incoming schedule against the charged residual
// budgets. The greedy path is sched.Replan — the only solver that understands
// per-node residuals and alive masks natively. Registry solvers run through
// the WHP driver when the instance allows it; when it does not (dead nodes,
// or the solver rejects the charged budget shape), the planner falls back to
// Replan and reports the fallback so the plan is flagged degraded.
func solveIncoming(g *graph.Graph, charged []int, k int,
	alive []bool, name string, req Request) (*core.Schedule, bool, error) {
	if name != solver.NameGreedy && alive == nil {
		post := instance.New(g, charged).WithK(k)
		spec := solver.Spec{Name: name}
		opt := solver.Options{
			Tries:  req.Tries,
			Cancel: req.Cancel,
			Hooks:  req.Hooks,
			Src:    rng.New(req.Seed),
		}
		s, err := solver.Solve(post, spec, opt)
		if err == solver.ErrCanceled {
			return nil, false, err
		}
		if err == nil && s.Lifetime() > 0 {
			return s, false, nil
		}
		// Validation rejections (uniform-budget solvers on charged
		// residuals) and empty draws degrade to greedy recruitment.
	}
	fellBack := name != solver.NameGreedy
	return sched.Replan(g, charged, k, alive), fellBack, nil
}

// weave unions the contributors into the first overlap slots of the incoming
// schedule, splitting phases at the window boundary, and returns the
// transition phases plus the exact overlap energy: every slot in the window
// charges one unit to each contributor the incoming set did not already
// schedule (members of the incoming set pay through its own usage).
func weave(incoming *core.Schedule, contributors []int, overlap int) ([]core.Phase, int) {
	phases := make([]core.Phase, 0, len(incoming.Phases)+1)
	energy := 0
	remaining := overlap
	for _, p := range incoming.Phases {
		if p.Duration <= 0 {
			continue
		}
		d := p.Duration
		if remaining > 0 {
			od := d
			if od > remaining {
				od = remaining
			}
			merged, extra := unionSet(p.Set, contributors)
			phases = append(phases, core.Phase{Set: merged, Duration: od})
			energy += od * extra
			remaining -= od
			d -= od
		}
		if d > 0 {
			phases = append(phases, core.Phase{Set: p.Set, Duration: d})
		}
	}
	return phases, energy
}

// unionSet returns the sorted union of a phase set and the contributors,
// plus how many contributors were not already in the set.
func unionSet(set, contributors []int) ([]int, int) {
	in := make(map[int]bool, len(set))
	out := append([]int(nil), set...)
	for _, v := range set {
		in[v] = true
	}
	extra := 0
	for _, v := range contributors {
		if !in[v] {
			out = append(out, v)
			extra++
		}
	}
	sort.Ints(out)
	return out, extra
}

// verifyIndex checks the plan slot by slot: every positive-duration phase
// must k-dominate the alive nodes and cumulative usage must stay within
// budgets. It returns the index of the first offending phase, or -1.
//
// Consecutive phases of an overlap ladder differ only in the contributor
// tail, so instead of a full recount per phase the check keeps one
// incremental session and moves it with SetMembers — O(changed nodes · deg)
// per step.
func verifyIndex(g *graph.Graph, phases []core.Phase, budgets []int, k int, alive []bool) int {
	usage := make([]int, len(budgets))
	sess := domset.NewSession(g).Reset(nil, k, alive)
	for i, p := range phases {
		if p.Duration < 0 {
			return i
		}
		if p.Duration == 0 {
			continue
		}
		// Range-check before handing these IDs to the session.
		for _, v := range p.Set {
			if v < 0 || v >= len(budgets) {
				return i
			}
			usage[v] += p.Duration
			if usage[v] > budgets[v] {
				return i
			}
		}
		sess.SetMembers(p.Set)
		if !sess.IsKDominating() {
			return i
		}
	}
	return -1
}

// aliveCount returns how many nodes are up (all, when alive is nil).
func aliveCount(g *graph.Graph, alive []bool) int {
	if alive == nil {
		return g.N()
	}
	n := 0
	for _, a := range alive {
		if a {
			n++
		}
	}
	return n
}
