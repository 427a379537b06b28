// Package sensim executes cluster-lifetime schedules slot by slot against
// the energy model, measuring what the paper's theorems promise on paper:
// the *achieved* network lifetime — the number of slots during which every
// alive node is dominated by alive, energy-positive active nodes — together
// with coverage traces and energy accounting. It also drives the
// data-gathering workload of the examples: in every covered slot each alive
// node's sensor reading reaches an active clusterhead.
package sensim

import (
	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Result summarizes one schedule execution.
type Result struct {
	// AchievedLifetime is the number of consecutive slots from time 0 during
	// which coverage held (every alive node k-dominated by serving nodes).
	AchievedLifetime int
	// ScheduleLifetime is the nominal lifetime of the executed schedule.
	ScheduleLifetime int
	// Coverage[t] is the fraction of alive nodes that were k-dominated in
	// slot t. len(Coverage) == number of slots actually executed.
	Coverage []float64
	// EnergySpent is the total budget units drained across all nodes.
	EnergySpent int
	// ReportsDelivered counts node-slots in which an alive node was
	// dominated (its sensor reading reached a clusterhead).
	ReportsDelivered int
	// FirstViolation is the slot of the first coverage violation, or -1.
	FirstViolation int
	// Deaths is the number of failure-plan crashes applied.
	Deaths int
}

// Injector applies per-slot faults to the network at the start of slot t and
// returns the number of nodes it killed. chaos.Plan's Injector satisfies
// this, giving Run access to the full unified fault taxonomy (crashes,
// regional blackouts, battery leaks) without this package depending on the
// chaos framework.
type Injector interface {
	Inject(net *energy.Network, t int) int
}

// Options configures an execution. It follows the canonical shape
// documented in package obs: common knobs (K, MaxSlots) share their names
// with heal.Options, and the embedded obs.Hooks carries the tracing sinks.
type Options struct {
	// K is the required domination tolerance per slot (>= 1).
	K int
	// Failures is the crash plan applied during execution (may be nil).
	Failures energy.FailurePlan
	// Inject, if non-nil, is invoked at the start of every slot after the
	// Failures plan, typically with a chaos.Plan injector. Its kills count
	// toward Result.Deaths.
	Inject Injector
	// StopAtViolation stops execution at the first uncovered slot rather
	// than running the schedule to completion.
	StopAtViolation bool
	// MaxSlots caps the slots executed (0 = run the whole schedule);
	// aligned with heal.Options.MaxSlots.
	MaxSlots int
	// Hooks carries the observability sinks (obs.Hooks; the promoted Trace
	// field receives slot, death, and run events). The zero value is the
	// no-op default: the slot loop stays allocation-free.
	obs.Hooks
}

// Run executes schedule s on the network until the schedule ends (or the
// first violation, if requested). The network is mutated: budgets drain and
// failures are applied. Nodes that are dead or out of budget are silently
// excluded from the active set (they cannot serve), exactly as a deployment
// would experience.
//
// A fully dead network is a terminal coverage violation: crashed nodes never
// revive, so the slot in which the last node dies is recorded with coverage
// 0, FirstViolation is set (if not already), and the run stops — lifetime
// never accrues past the death of the network. (Earlier versions scored the
// empty network as "vacuously covered", which let a chaos plan that kills
// everyone *improve* the reported lifetime.)
//
// When opt.Hooks carries a tracer, Run emits run_start/run_end, per-slot
// slot_start/slot_end (serving count, alive count, coverage), and death
// events; with the zero Hooks the instrumentation is a nil check per
// emission and the slot loop allocates nothing extra.
func Run(net *energy.Network, s *core.Schedule, opt Options) Result {
	if opt.K < 1 {
		opt.K = 1
	}
	res := Result{ScheduleLifetime: s.Lifetime(), FirstViolation: -1}
	plan := append(energy.FailurePlan(nil), opt.Failures...)
	plan.Sort()
	sess := domset.NewSession(net.G)
	next := 0
	t := 0
	// Hoisted so the hot loop skips Event construction entirely when tracing
	// is off — the nil check inside Emit alone still pays for building the
	// event argument first.
	traced := opt.Enabled()
	opt.Emit(obs.RunStart("sensim", net.G.N()))
	finish := func() Result {
		opt.Emit(obs.RunEnd("sensim", len(res.Coverage), res.AchievedLifetime, res.Deaths))
		return res
	}

	for _, phase := range s.Phases {
		for dt := 0; dt < phase.Duration; dt++ {
			if opt.MaxSlots > 0 && t >= opt.MaxSlots {
				return finish()
			}
			if traced {
				opt.Emit(obs.SlotStart(t))
			}
			// Apply crashes scheduled for this slot.
			for next < len(plan) && plan[next].Time <= t {
				if net.Alive[plan[next].Node] {
					net.Kill(plan[next].Node)
					res.Deaths++
					if traced {
						opt.Emit(obs.Death(t, plan[next].Node))
					}
				}
				next++
			}
			if opt.Inject != nil {
				res.Deaths += opt.Inject.Inject(net, t)
			}
			// Serving set: the scheduled nodes that are alive and have
			// budget; the rest are silently excluded (they cannot serve),
			// exactly as a deployment would experience.
			serving := net.DrainServiceable(phase.Set)
			res.EnergySpent += len(serving) * net.ActiveCost

			alive := net.AliveCount()
			if alive == 0 && net.G.N() > 0 {
				// Dead network: terminal violation, stop the run.
				res.Coverage = append(res.Coverage, 0)
				if res.FirstViolation == -1 {
					res.FirstViolation = t
				}
				opt.Emit(obs.SlotEnd(t, 0, 0, 0))
				return finish()
			}
			covered := sess.Reset(serving, opt.K, net.Alive).CoveredCount()
			cov := 1.0 // only the 0-node network
			if alive > 0 {
				cov = float64(covered) / float64(alive)
			}
			res.Coverage = append(res.Coverage, cov)
			res.ReportsDelivered += covered
			if traced {
				opt.Emit(obs.SlotEnd(t, len(serving), alive, cov))
			}
			if covered == alive {
				if res.FirstViolation == -1 {
					res.AchievedLifetime = t + 1
				}
			} else if res.FirstViolation == -1 {
				res.FirstViolation = t
				if opt.StopAtViolation {
					return finish()
				}
			}
			t++
		}
	}
	return finish()
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
