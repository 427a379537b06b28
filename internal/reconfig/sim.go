package reconfig

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sensim"
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
	// Chaos injects crashes and battery leaks through chaos.Injector. Node
	// IDs are in the ORIGINAL graph's ID space: the injector is relabeled at
	// every change, and events whose node a delta removed are dropped.
	Chaos chaos.Plan
	// Hooks receives run, slot, crash, leak, wake-miss, and reconfig
	// events. A run that fails at a change emits no run_end.
	Hooks obs.Hooks
}

// SimResult summarizes a simulated run under live reconfigurations.
type SimResult struct {
	// Score is the coverage record. A dead network does not end the run —
	// a later change can provision fresh alive nodes — so CoveredSlots also
	// counts covered slots after the first violation.
	sensim.Score
	// ScheduleLifetime is the nominal lifetime: initial schedule slots spent
	// before the first change plus every transition plan's full length.
	ScheduleLifetime int
	// Slots is how many slots were simulated; len(Coverage) == Slots.
	Slots int
	// EnergySpent is total battery drained; OverlapEnergy the share charged
	// to overlap contributors by the planner.
	EnergySpent   int
	OverlapEnergy int
	// Reconfigs, DegradedTransitions, ViolatedTransitions count the planner
	// outcomes; WakeMisses the nodes that slept through an install;
	// Deaths the alive nodes that chaos-plan crashes killed.
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

	meter := sensim.NewMeter(opt.Hooks)
	res := SimResult{ScheduleLifetime: s.Lifetime()}
	cur := s
	pos := 0 // position within cur's timeline
	net := energy.NewNetwork(g, budgets)
	inject := opt.Chaos.Injector().WithHooks(opt.Hooks)
	// The coverage session lives across slots: consecutive slots usually run
	// the same phase set, so SetMembers moves it to each slot's serving set
	// (O(changed · deg)) instead of recounting every node.
	sess := domset.NewSession(g).Reset(nil, k, net.Alive)
	serving := make([]int, 0, g.N()) // reused slot buffer

	// Initial lifetime plus total budget plus one: enough slots that any
	// feasible plan can run out.
	maxSlots := s.Lifetime() + 1
	for _, b := range budgets {
		maxSlots += b
	}

	wakeSrc := rng.New(opt.Seed ^ 0x77616b65) // independent of solver seeds
	var informed []bool                       // per current node; nil = everyone has the schedule
	nextEvent := 0

	opt.Hooks.Emit(obs.RunStart("reconfig", g.N()))
	for t := 0; t < maxSlots; t++ {
		if deaths := inject.Inject(net, t); deaths > 0 {
			res.Deaths += deaths
			// Only a slot with a crash pays the O(n) mask sync.
			for v, up := range net.Alive {
				sess.SetAlive(v, up)
			}
		}

		// Scheduled reconfigurations due at t.
		for nextEvent < len(events) && events[nextEvent].At <= t {
			change := events[nextEvent]
			nextEvent++
			// No alive mask until the first crash: with one, the planner
			// falls back from opt.Solver to greedy recruitment.
			var alive []bool
			if res.Deaths > 0 {
				alive = net.Alive
			}
			p, err := Compute(instance.New(net.G, net.Residual).WithK(k), Request{
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
				res.Score = meter.Score
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

			inject.Relabel(p.Mapping)
			net = energy.NewNetwork(p.Graph, p.Budgets)
			if p.Alive != nil {
				copy(net.Alive, p.Alive)
			}
			cur = p.Schedule()
			pos = 0
			// New graph, new node space: restart the session (one Reset per
			// reconfig, not per slot).
			sess = domset.NewSession(net.G).Reset(nil, k, net.Alive)
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
			if !net.Alive[v] {
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
			if !net.CanServe(v) {
				continue
			}
			net.Residual[v]--
			res.EnergySpent++
			serving = append(serving, v)
		}

		// Usually nothing flips: the phase carries over.
		sess.SetMembers(serving)
		meter.Slot(t, len(serving), sess)
		res.Slots = t + 1
		pos++
	}
	res.Score = meter.Score
	opt.Hooks.Emit(obs.RunEnd("reconfig", res.Slots, res.AchievedLifetime, res.Deaths))
	return res, nil
}
