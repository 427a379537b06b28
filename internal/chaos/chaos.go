// Package chaos is the unified fault-injection framework: a seeded,
// composable Plan is the only fault input of the slot runtimes.
// sensim.Run, heal.Run and reconfig.Simulate each take one, and build their
// per-slot injectors from it.
//
// A Plan bundles three fault classes:
//
//   - node crashes (including regional blackouts that wipe a closed
//     neighborhood — the adversarial pattern k-tolerance defends against),
//   - battery-leak spikes that silently drain residual duty budget, and
//   - an unreliable-radio model (flat independent loss or bursty
//     Gilbert–Elliott loss) for the message-passing layer.
//
// Plans are pure descriptions: building one performs no mutation, and the
// same Plan can drive several executions. The energy/sensor layers apply a
// Plan's crashes and leaks through Injector, one slot at a time; the message
// layer consumes Plan.Radio, a distsim.Radio. All randomness flows through
// rng.Source seeds, so a chaos scenario is exactly reproducible — the
// property the self-healing experiments (E23) rely on to subject both arms
// of a comparison to the identical fault sequence.
package chaos

import (
	"sort"

	"repro/internal/distsim"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Leak is a battery-leak spike: at the start of slot Time, node Node loses
// Amount units of residual duty budget (clamped at zero). Leaks model
// self-discharge, firmware bugs, or cold snaps — energy loss without death.
type Leak struct {
	Time   int
	Node   int
	Amount int
}

// Plan is a composable, seeded fault plan. The zero value injects nothing.
type Plan struct {
	Crashes energy.FailurePlan // time-ordered node crashes
	Leaks   []Leak             // time-ordered battery-leak spikes
	Radio   distsim.Radio      // message-loss model (nil = reliable medium)
}

// Merge combines plans into one: crashes and leaks are concatenated and
// re-sorted by time; the last non-nil radio wins.
func Merge(plans ...Plan) Plan {
	var out Plan
	for _, p := range plans {
		out.Crashes = append(out.Crashes, p.Crashes...)
		out.Leaks = append(out.Leaks, p.Leaks...)
		if p.Radio != nil {
			out.Radio = p.Radio
		}
	}
	out.Crashes.Sort()
	sortLeaks(out.Leaks)
	return out
}

func sortLeaks(leaks []Leak) {
	sort.SliceStable(leaks, func(i, j int) bool {
		if leaks[i].Time != leaks[j].Time {
			return leaks[i].Time < leaks[j].Time
		}
		return leaks[i].Node < leaks[j].Node
	})
}

// CrashCount returns the number of crashes in the plan.
func (p Plan) CrashCount() int { return len(p.Crashes) }

// Crashes draws a plan killing count distinct random nodes at uniform times
// in [0, horizon) — the classic random-failure workload.
func Crashes(g *graph.Graph, count, horizon int, src *rng.Source) Plan {
	return Plan{Crashes: energy.RandomFailures(g, count, horizon, src)}
}

// Blackouts draws a plan of regional failures: for each of `regions` random
// closed neighborhoods, up to perRegion of its members crash at uniform
// times in [0, horizon). This is energy.NeighborhoodFailures promoted into
// the unified framework — the pattern that separates k-tolerant schedules
// from plain ones.
func Blackouts(g *graph.Graph, regions, perRegion, horizon int, src *rng.Source) Plan {
	return Plan{Crashes: energy.NeighborhoodFailures(g, regions, perRegion, horizon, src)}
}

// LeakSpikes draws a plan of count battery-leak spikes on random nodes at
// uniform times in [0, horizon), each draining 1..maxAmount budget units.
func LeakSpikes(g *graph.Graph, count, maxAmount, horizon int, src *rng.Source) Plan {
	if maxAmount < 1 {
		maxAmount = 1
	}
	leaks := make([]Leak, 0, count)
	for i := 0; i < count; i++ {
		leaks = append(leaks, Leak{
			Time:   src.Intn(max(1, horizon)),
			Node:   src.Intn(g.N()),
			Amount: 1 + src.Intn(maxAmount),
		})
	}
	sortLeaks(leaks)
	return Plan{Leaks: leaks}
}

// FlatLoss returns a plan whose radio is distsim.FlatRadio: it drops every
// delivery independently with probability p, drawn from src. Packaged as a
// Plan so it composes with crashes and leaks.
func FlatLoss(p float64, src *rng.Source) Plan {
	return Plan{Radio: distsim.FlatRadio(p, src)}
}

// BurstyLoss returns a plan whose radio follows a per-link Gilbert–Elliott
// model: each directed link is a two-state Markov chain with a good state
// (loss pGood) and a bad state (loss pBad), switching good→bad with
// probability pGB and bad→good with probability pBG per delivery round.
// This reproduces the bursty, correlated losses real wireless links show —
// the regime where retry-based repair is genuinely stressed, because a bad
// link stays bad for ~1/pBG consecutive rounds.
func BurstyLoss(pGood, pBad, pGB, pBG float64, src *rng.Source) Plan {
	return Plan{Radio: &GilbertElliott{
		PGood: pGood, PBad: pBad, PGB: pGB, PBG: pBG,
		src:   src,
		links: make(map[[2]int]*linkState),
	}}
}

// GilbertElliott is the bursty radio; see BurstyLoss. Exported so tests and
// experiments can inspect parameters.
type GilbertElliott struct {
	PGood, PBad float64 // loss probability in the good resp. bad state
	PGB, PBG    float64 // per-round transition probabilities
	src         *rng.Source
	links       map[[2]int]*linkState
}

type linkState struct {
	bad       bool
	lastRound int
}

// Drop implements distsim.Radio. Per-link chains advance lazily: a
// link that was silent for r rounds performs r state transitions on its next
// delivery, so burst lengths are measured in wall-clock rounds, not in
// deliveries.
func (ge *GilbertElliott) Drop(from, to, round int) bool {
	key := [2]int{from, to}
	st, ok := ge.links[key]
	if !ok {
		st = &linkState{lastRound: round}
		ge.links[key] = st
	}
	for ; st.lastRound < round; st.lastRound++ {
		if st.bad {
			if ge.src.Float64() < ge.PBG {
				st.bad = false
			}
		} else {
			if ge.src.Float64() < ge.PGB {
				st.bad = true
			}
		}
	}
	p := ge.PGood
	if st.bad {
		p = ge.PBad
	}
	return ge.src.Float64() < p
}

// Injector is the stateful per-slot executor of a plan's crash and leak
// events. A fresh Injector starts at slot 0; one Injector drives one
// execution. Relabel carries its pending events across a graph delta.
type Injector struct {
	plan      Plan
	nextCrash int
	nextLeak  int
	hooks     obs.Hooks
}

// Injector returns a fresh executor over the plan.
func (p Plan) Injector() *Injector {
	return &Injector{plan: p}
}

// WithHooks attaches observability to the injector and returns it, so a
// caller can chain plan.Injector().WithHooks(h): every crash that lands on
// an alive node emits an obs crash event, every leak that lands a leak
// event. With the zero Hooks (the default) injection stays silent and
// allocation-free.
func (in *Injector) WithHooks(h obs.Hooks) *Injector {
	in.hooks = h
	return in
}

// Inject applies every crash and leak scheduled at or before slot t that has
// not been applied yet, mutating net. It returns the number of crashes that
// actually killed an alive node (the Deaths accounting of the simulators).
func (in *Injector) Inject(net *energy.Network, t int) int {
	deaths := 0
	crashes := in.plan.Crashes
	for in.nextCrash < len(crashes) && crashes[in.nextCrash].Time <= t {
		v := crashes[in.nextCrash].Node
		if v >= 0 && v < len(net.Alive) && net.Alive[v] {
			net.Kill(v)
			deaths++
			in.hooks.Emit(obs.Crash(t, v))
		}
		in.nextCrash++
	}
	leaks := in.plan.Leaks
	for in.nextLeak < len(leaks) && leaks[in.nextLeak].Time <= t {
		l := leaks[in.nextLeak]
		if l.Node >= 0 && l.Node < len(net.Residual) {
			net.Residual[l.Node] -= l.Amount
			if net.Residual[l.Node] < 0 {
				net.Residual[l.Node] = 0
			}
			in.hooks.Emit(obs.Leak(t, l.Node, l.Amount))
		}
		in.nextLeak++
	}
	return deaths
}

// Relabel moves the pending events into a graph delta's new ID space:
// mapping[v] is node v's post-delta ID, or -1 when the delta removed it.
// Pending events on removed nodes, and on IDs outside the mapping, are
// dropped; the rest keep their order and name their nodes' new IDs, also in
// the crash and leak events they emit. Events already applied are not
// touched, and neither is the Plan the injector was built from, so one plan
// can still drive several executions.
func (in *Injector) Relabel(mapping []int) {
	moved := func(v int) (int, bool) {
		if v < 0 || v >= len(mapping) || mapping[v] < 0 {
			return 0, false
		}
		return mapping[v], true
	}
	var crashes energy.FailurePlan
	for _, c := range in.plan.Crashes[in.nextCrash:] {
		if v, ok := moved(c.Node); ok {
			crashes = append(crashes, energy.Failure{Time: c.Time, Node: v})
		}
	}
	var leaks []Leak
	for _, l := range in.plan.Leaks[in.nextLeak:] {
		if v, ok := moved(l.Node); ok {
			leaks = append(leaks, Leak{Time: l.Time, Node: v, Amount: l.Amount})
		}
	}
	in.plan.Crashes, in.plan.Leaks = crashes, leaks
	in.nextCrash, in.nextLeak = 0, 0
}
