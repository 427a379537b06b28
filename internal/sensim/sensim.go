// Package sensim executes cluster-lifetime schedules slot by slot against
// the energy model, measuring what the paper's theorems promise on paper:
// the *achieved* network lifetime — the number of slots during which every
// alive node is dominated by alive, energy-positive active nodes — together
// with coverage traces and energy accounting. It also drives the
// data-gathering workload of the examples: in every covered slot each alive
// node's sensor reading reaches an active clusterhead.
package sensim

import (
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Result summarizes one schedule execution.
type Result struct {
	// Score is the coverage record: AchievedLifetime counts the consecutive
	// slots from time 0 in which every alive node was k-dominated by serving
	// nodes, and len(Coverage) is the number of slots executed.
	Score
	// ScheduleLifetime is the nominal lifetime of the executed schedule.
	ScheduleLifetime int
	// EnergySpent is the total budget units drained across all nodes.
	EnergySpent int
	// ReportsDelivered counts node-slots in which an alive node was
	// dominated (its sensor reading reached a clusterhead).
	ReportsDelivered int
	// Deaths is the number of chaos-plan crashes that killed an alive node.
	Deaths int
}

// Options configures an execution. It follows the canonical shape
// documented in package obs: the tolerance K, the fault plan Chaos, and the
// embedded obs.Hooks carrying the tracing sinks. heal.Options is an alias
// of it.
type Options struct {
	// K is the required domination tolerance per slot (>= 1; 0 means 1).
	K int
	// Chaos is the fault plan applied during execution (zero value = none):
	// its crashes and leaks land at the start of their slots, and its kills
	// count toward the result's Deaths. Run sends no messages and ignores
	// its Radio; heal.Run makes it the patch protocol's medium.
	Chaos chaos.Plan
	// Hooks carries the observability sinks (obs.Hooks; the promoted Trace
	// field receives run, slot, crash and leak events, and under heal.Run
	// also patch, recruit, replan, degraded and protocol round events). The
	// zero value is the no-op default: the slot loop stays allocation-free.
	obs.Hooks
}

// Run executes schedule s on the network until the schedule ends. The
// network is mutated: budgets drain and the chaos plan's faults are
// applied. Nodes that are dead or out of budget are silently excluded from
// the active set (they cannot serve), exactly as a deployment would
// experience.
//
// A fully dead network is a terminal coverage violation: crashed nodes never
// revive, so the slot in which the last node dies is scored by the Meter
// with coverage 0, and the run stops — lifetime never accrues past the death
// of the network.
//
// When opt.Hooks carries a tracer, Run emits run_start/run_end, per-slot
// slot_start/slot_end (serving count, alive count, coverage), and the chaos
// plan's crash and leak events; with the zero Hooks the instrumentation is
// a nil check per emission and the slot loop allocates nothing extra.
func Run(net *energy.Network, s *core.Schedule, opt Options) Result {
	if opt.K < 1 {
		opt.K = 1
	}
	res := Result{ScheduleLifetime: s.Lifetime()}
	inject := opt.Chaos.Injector().WithHooks(opt.Hooks)
	sess := domset.NewSession(net.G)
	meter := NewMeter(opt.Hooks)
	var serving []int
	t := 0
	opt.Emit(obs.RunStart("sensim", net.G.N()))
run:
	for _, phase := range s.Phases {
		for dt := 0; dt < phase.Duration; dt++ {
			opt.Emit(obs.SlotStart(t))
			res.Deaths += inject.Inject(net, t)
			// Serving set: the scheduled nodes that are alive and have
			// budget; the rest are silently excluded (they cannot serve),
			// exactly as a deployment would experience.
			serving = net.DrainServiceable(serving[:0], phase.Set)
			res.EnergySpent += len(serving)
			covered, dead := meter.Slot(t, len(serving), sess.Reset(serving, opt.K, net.Alive))
			res.ReportsDelivered += covered
			if dead {
				break run
			}
			t++
		}
	}
	res.Score = meter.Score
	opt.Emit(obs.RunEnd("sensim", len(res.Coverage), res.AchievedLifetime, res.Deaths))
	return res
}

// NaiveAllOn returns the baseline schedule with every node active in every
// slot until the uniform budget b runs out: lifetime exactly b. This is the
// "no scheduling" strawman every partition-based schedule must beat.
func NaiveAllOn(n, b int) *core.Schedule {
	if n == 0 || b == 0 {
		return &core.Schedule{}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return &core.Schedule{Phases: []core.Phase{{Set: all, Duration: b}}}
}

// AdversarialPlan returns the cheapest schedule-aware attack within the kill
// budget: it scans the schedule's phases in order and, at the first phase in
// which the victim node is served by at most `budget` nodes, kills exactly
// those servers at time 0. It returns nil if every phase is too redundant —
// for a k-dominating schedule this is guaranteed whenever budget < k, which
// is precisely the Theorem 6.2 fault-tolerance property.
func AdversarialPlan(g *graph.Graph, s *core.Schedule, victim, budget int) energy.FailurePlan {
	closed := map[int]bool{victim: true}
	for _, u := range g.Neighbors(victim) {
		closed[int(u)] = true
	}
	for _, p := range s.Phases {
		if p.Duration == 0 {
			continue
		}
		var servers []int
		for _, v := range p.Set {
			if closed[v] {
				servers = append(servers, v)
			}
		}
		if len(servers) > 0 && len(servers) <= budget {
			var plan energy.FailurePlan
			for _, v := range servers {
				plan = append(plan, energy.Failure{Time: 0, Node: v})
			}
			return plan
		}
	}
	return nil
}
