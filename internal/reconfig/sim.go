package reconfig

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Change is one scheduled live reconfiguration: at slot At (global simulated
// time), Delta is applied to the network as it then stands. Delta node IDs
// are in the network's CURRENT ID space at that moment — i.e. the post-delta
// space of the previous change — which is what a live operator issuing
// PATCHes against the running service observes.
type Change struct {
	At    int
	Delta graph.Delta
}

// SimOptions configures Simulate.
type SimOptions struct {
	// K is the domination tolerance. <= 0 means 1.
	K int
	// Overlap is the overlap window requested from the planner at every
	// change; 0 simulates naive re-solve-and-swap.
	Overlap int
	// Solver names the incoming-schedule algorithm ("" = greedy).
	Solver string
	// Tries and Seed drive the planner's randomized solvers and the
	// wake-loss draws.
	Tries int
	Seed  uint64
	// WakeLoss is the probability a node that was asleep when a new schedule
	// was installed misses its first scheduled wake-up (it is informed by
	// the retry and serves from its next slot on). Nodes awake at install
	// time — the overlap contributors in particular — and nodes the delta
	// just provisioned learn the schedule immediately. 0 disables the model.
	WakeLoss float64
	// Chaos injects crashes and battery leaks. Node IDs are in the ORIGINAL
	// graph's ID space; events whose node has been removed by a delta are
	// dropped.
	Chaos chaos.Plan
	// Hooks receives slot, crash, leak, wake-miss, and reconfig events.
	Hooks obs.Hooks
}

// SimResult summarizes a simulated run under live reconfigurations.
type SimResult struct {
	// ScheduleLifetime is the nominal lifetime: initial schedule slots spent
	// before the first change plus every transition plan's full length.
	ScheduleLifetime int
	// AchievedLifetime is the last slot index (exclusive) up to which every
	// slot k-dominated the then-alive nodes.
	AchievedLifetime int
	// CoveredSlots counts all dominated slots, contiguous or not.
	CoveredSlots int
	// Slots is how many slots were simulated.
	Slots int
	// FirstViolation is the first undominated slot, or -1.
	FirstViolation int
	// Coverage[t] is the fraction of alive nodes k-dominated in slot t.
	// len(Coverage) == Slots.
	Coverage []float64
	// EnergySpent is total battery drained; OverlapEnergy the share charged
	// to overlap contributors by the planner.
	EnergySpent   int
	OverlapEnergy int
	// Reconfigs, DegradedTransitions, ViolatedTransitions count the planner
	// outcomes; WakeMisses the nodes that slept through an install;
	// Deaths the nodes lost to chaos or battery exhaustion.
	Reconfigs           int
	DegradedTransitions int
	ViolatedTransitions int
	WakeMisses          int
	Deaths              int
}

// Simulate executes s on g slot by slot, applying the chaos plan and the
// scheduled changes, and measures what coverage actually survives. At each
// change it asks Compute for a transition plan (with opt.Overlap), installs
// it, and — this is the part naive swapping gets wrong — makes every node
// that was asleep at install time miss its first wake-up with probability
// WakeLoss. Overlap windows keep the outgoing set awake across exactly those
// first slots, so the planner's extra energy buys insurance against the
// misses; Overlap = 0 reproduces the naive re-solve-and-swap baseline under
// identical seeded churn.
func Simulate(g *graph.Graph, s *core.Schedule, budgets []int, events []Change, opt SimOptions) (SimResult, error) {
	if g == nil || s == nil {
		return SimResult{}, fmt.Errorf("reconfig: simulate: nil graph or schedule")
	}
	if len(budgets) != g.N() {
		return SimResult{}, fmt.Errorf("reconfig: simulate: %d budgets for %d nodes", len(budgets), g.N())
	}
	if opt.WakeLoss < 0 || opt.WakeLoss >= 1 {
		return SimResult{}, fmt.Errorf("reconfig: simulate: wake loss %v outside [0, 1)", opt.WakeLoss)
	}
	k := opt.K
	if k <= 0 {
		k = 1
	}

	res := SimResult{FirstViolation: -1}
	cur := s
	pos := 0 // position within cur's timeline
	curG := g
	residual := append([]int(nil), budgets...)
	var alive []bool // nil until the first death
	// The coverage session lives across slots: consecutive slots usually run
	// the same phase set, so SetMembers moves it to each slot's serving set
	// (O(changed · deg)) instead of recounting every node. Deaths stream in
	// through SetAlive.
	sess := domset.NewSession(curG).Reset(nil, k, nil)
	serving := make([]int, 0, curG.N()) // reused slot buffer

	// origIdx maps original node IDs (the chaos plan's space) to current
	// IDs, composed through every delta; -1 = removed.
	origIdx := make([]int, g.N())
	for v := range origIdx {
		origIdx[v] = v
	}

	// Initial lifetime plus total budget plus one: enough slots that any
	// feasible plan can run out.
	maxSlots := s.Lifetime() + 1
	for _, b := range budgets {
		maxSlots += b
	}
	res.ScheduleLifetime = s.Lifetime()

	wakeSrc := rng.New(opt.Seed ^ 0x77616b65) // independent of solver seeds
	var informed []bool                       // per current node; nil = everyone has the schedule
	nextCrash, nextLeak := 0, 0
	nextEvent := 0

	ensureAlive := func() []bool {
		if alive == nil {
			alive = make([]bool, curG.N())
			for i := range alive {
				alive[i] = true
			}
		}
		return alive
	}

	for t := 0; t < maxSlots; t++ {
		// Chaos due at t, remapped from original IDs; events on removed
		// nodes are dropped.
		for nextCrash < len(opt.Chaos.Crashes) && opt.Chaos.Crashes[nextCrash].Time <= t {
			ev := opt.Chaos.Crashes[nextCrash]
			nextCrash++
			if ev.Node < 0 || ev.Node >= len(origIdx) || origIdx[ev.Node] < 0 {
				continue
			}
			v := origIdx[ev.Node]
			if a := ensureAlive(); a[v] {
				a[v] = false
				sess.SetAlive(v, false)
				res.Deaths++
				opt.Hooks.Emit(obs.Crash(t, v))
			}
		}
		for nextLeak < len(opt.Chaos.Leaks) && opt.Chaos.Leaks[nextLeak].Time <= t {
			ev := opt.Chaos.Leaks[nextLeak]
			nextLeak++
			if ev.Node < 0 || ev.Node >= len(origIdx) || origIdx[ev.Node] < 0 {
				continue
			}
			v := origIdx[ev.Node]
			residual[v] -= ev.Amount
			if residual[v] < 0 {
				residual[v] = 0
			}
			opt.Hooks.Emit(obs.Leak(t, v, ev.Amount))
		}

		// Scheduled reconfigurations due at t.
		for nextEvent < len(events) && events[nextEvent].At <= t {
			change := events[nextEvent]
			nextEvent++
			p, err := Compute(instance.New(curG, residual).WithK(k), Request{
				Old:     cur,
				At:      pos,
				Alive:   alive,
				Delta:   change.Delta,
				Overlap: opt.Overlap,
				Solver:  opt.Solver,
				Seed:    opt.Seed + uint64(res.Reconfigs)*7919,
				Tries:   opt.Tries,
				Hooks:   opt.Hooks,
			})
			if err != nil {
				return res, fmt.Errorf("reconfig: simulate: change at t=%d: %w", change.At, err)
			}
			res.Reconfigs++
			if p.Degraded {
				res.DegradedTransitions++
			}
			if p.Violation {
				res.ViolatedTransitions++
			}
			res.OverlapEnergy += p.OverlapEnergy
			res.ScheduleLifetime += p.Lifetime() - (cur.Lifetime() - pos)

			// Who is awake right now learns the new schedule immediately, and
			// nodes the delta just provisioned arrive carrying it; every
			// sleeping survivor risks missing its first wake-up.
			informed = make([]bool, p.Graph.N())
			survivors := 0
			for _, m := range p.Mapping {
				if m >= 0 {
					survivors++
				}
			}
			for v := survivors; v < p.Graph.N(); v++ {
				informed[v] = true
			}
			for _, v := range cur.ActiveAt(pos) {
				if v >= 0 && v < len(p.Mapping) && p.Mapping[v] >= 0 {
					informed[p.Mapping[v]] = true
				}
			}

			// Compose the original-ID index with the delta's mapping.
			for ov, v := range origIdx {
				if v < 0 {
					continue
				}
				origIdx[ov] = p.Mapping[v]
			}

			curG = p.Graph
			residual = append([]int(nil), p.Budgets...)
			alive = p.Alive
			cur = p.Schedule()
			pos = 0
			// New graph, new node space: restart the session (one Reset per
			// reconfig, not per slot).
			sess = domset.NewSession(curG).Reset(nil, k, alive)
		}

		intended := cur.ActiveAt(pos)
		if intended == nil {
			break // schedule exhausted
		}
		opt.Hooks.Emit(obs.SlotStart(t))

		// Serve the slot: scheduled nodes that are alive, funded, and (post
		// install) informed. An uninformed node misses this slot with
		// probability WakeLoss but is informed either way afterwards. The
		// alive check comes first: a dead node cannot wake at all, so it must
		// not consume a wake-loss draw or count as a WakeMiss (it used to,
		// which both inflated WakeMisses and shifted the RNG stream for the
		// survivors).
		serving = serving[:0]
		for _, v := range intended {
			if alive != nil && !alive[v] {
				continue
			}
			if informed != nil && !informed[v] {
				informed[v] = true
				if opt.WakeLoss > 0 && wakeSrc.Float64() < opt.WakeLoss {
					res.WakeMisses++
					opt.Hooks.Emit(obs.WakeMiss(t, v))
					continue
				}
			}
			if residual[v] < 1 {
				continue
			}
			residual[v]--
			res.EnergySpent++
			serving = append(serving, v)
		}

		// Usually nothing flips: the phase carries over.
		sess.SetMembers(serving)

		na := sess.AliveCount()
		covered := sess.CoveredCount()
		// A dead non-empty network is a violation, not "0 of 0 covered":
		// vacuous equality used to inflate CoveredSlots and AchievedLifetime.
		// The slot loop still continues — a later delta can provision fresh
		// alive nodes, and CoveredSlots counts non-contiguous coverage.
		dominated := covered == na && (na > 0 || curG.N() == 0)
		if dominated {
			res.CoveredSlots++
			if res.FirstViolation == -1 {
				res.AchievedLifetime = t + 1
			}
		} else if res.FirstViolation == -1 {
			res.FirstViolation = t
		}
		cov := 0.0
		if na > 0 {
			cov = float64(covered) / float64(na)
		}
		res.Coverage = append(res.Coverage, cov)
		opt.Hooks.Emit(obs.SlotEnd(t, len(serving), na, cov))

		res.Slots = t + 1
		pos++
	}
	return res, nil
}
