// Package heal is the self-healing schedule runtime: it executes a
// cluster-lifetime schedule against the energy model the way sensim does,
// but instead of letting the network run degraded after a fault opens a
// coverage hole, it repairs the hole online through a three-rung escalation
// ladder:
//
//  1. local patching — a bounded-retry distributed recruitment protocol
//     (three broadcast exchanges under the lossy radio, retried with
//     exponential backoff) enlists the highest-residual-energy alive
//     neighbor of each under-covered node;
//  2. centralized re-planning — when patching keeps failing, the runtime
//     rebuilds the remaining schedule from the residual budgets of the
//     alive nodes (sched.Replan), as a sink with a global view would;
//  3. graceful degradation — when even a fresh plan cannot cover everyone,
//     the slot executes with partial coverage and is reported, rather than
//     aborting the run.
//
// The paper pre-provisions against failure (Algorithm 3's k-tolerant
// schedules); this package adds the complementary online half, in the
// spirit of distributed self-stabilizing reconfiguration (Censor-Hillel &
// Rabie, arXiv:1810.02106) and local dominator recruitment (Penso &
// Barbosa, arXiv:cs/0309040). Experiment E23 measures what that buys: a
// 1-tolerant schedule plus healing against a statically k-tolerant one
// under the identical chaos plan.
package heal

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/domset"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sensim"
)

// Options configures a self-healing execution: it is sensim's, the
// canonical shape documented in package obs. Chaos.Radio, when set, is the
// patch protocol's medium; nil is a reliable one.
type Options = sensim.Options

const (
	// patchAttempts bounds the recruitment retries per slot. Attempt a
	// rebroadcasts every protocol message 2^a times.
	patchAttempts = 3
	// replanAfter is the number of consecutive patch-failure slots that
	// triggers centralized re-planning.
	replanAfter = 2
)

// Result summarizes a self-healing execution. Its coverage record is
// sensim's Score, so the two runtimes are directly comparable; a violation
// is a slot that stayed under-covered after the full escalation ladder.
type Result struct {
	sensim.Score
	// ScheduleLifetime is the nominal lifetime of the input schedule.
	ScheduleLifetime int
	// EnergySpent is the total budget units drained (schedule + recruits).
	EnergySpent int
	// Deaths counts chaos-plan crashes applied.
	Deaths int

	// PatchAttempts counts recruitment protocol executions; Retries the
	// attempts beyond the first within a slot; PatchSuccesses the slots
	// whose holes local patching closed; Recruited the nodes enlisted.
	PatchAttempts  int
	Retries        int
	PatchSuccesses int
	Recruited      int
	// Protocol is the aggregate message cost of all patch attempts.
	Protocol distsim.Stats

	// Replans counts centralized re-planning escalations; DegradedSlots the
	// slots that ran with partial coverage after the ladder was exhausted.
	Replans       int
	DegradedSlots int
}

// Run executes schedule s on net with online self-healing. The network is
// mutated: budgets drain, chaos faults apply, recruits spend energy. The
// run continues past the nominal schedule end as long as re-planning over
// residual budgets can still produce covering phases, and past coverage
// violations (degraded slots) until the plan and the replanner are both
// exhausted. It fails before the first slot when the plan's radio is one
// the patch protocol rejects (a flat loss outside [0, 1)), and mid-run when
// a patch protocol run fails; the Result then holds the slots run so far.
func Run(net *energy.Network, s *core.Schedule, opt Options) (Result, error) {
	if opt.K < 1 {
		opt.K = 1
	}
	meter := sensim.NewMeter(opt.Hooks)
	res := Result{Score: meter.Score, ScheduleLifetime: s.Lifetime()}
	g := net.G
	// Enough slots for any replan over the residual budgets to play out.
	maxSlots := s.Lifetime() + net.TotalResidual() + 1

	radio := opt.Chaos.Radio
	if err := (distsim.Options{Radio: radio}).Validate(); err != nil {
		return res, fmt.Errorf("heal: patch radio: %w", err)
	}
	inject := opt.Chaos.Injector().WithHooks(opt.Hooks)
	sess := domset.NewSession(g)
	uncovBuf := make([]int, 0, g.N())

	cur := s
	pos := 0 // slot index within cur
	failStreak := 0
	var recruits, served []int
	lastPhase := -1

	opt.Emit(obs.RunStart("heal", g.N()))
	for t := 0; t < maxSlots; t++ {
		opt.Emit(obs.SlotStart(t))
		res.Deaths += inject.Inject(net, t)

		if net.AliveCount() == 0 && g.N() > 0 {
			// Dead network: no recruit or replan can revive anyone, so the
			// meter scores a terminal violation.
			meter.Slot(t, 0, sess.Reset(nil, opt.K, net.Alive))
			break
		}

		// Locate the scheduled set; when the plan is exhausted, escalate to
		// the replanner before giving up — the residual budgets may still
		// hold whole covering phases (the squeeze a static run leaves on
		// the table).
		phaseSet, phaseIdx := activeAt(cur, pos)
		if phaseSet == nil {
			next := sched.Replan(g, net.Residual, opt.K, net.Alive)
			if next.Lifetime() == 0 {
				break
			}
			res.Replans++
			opt.Emit(obs.Replan(t, next.Lifetime()))
			cur, pos = next, 0
			lastPhase = -1
			phaseSet, phaseIdx = activeAt(cur, pos)
		}
		if phaseIdx != lastPhase {
			// Recruits backstop the phase that was broken when they were
			// enlisted; a fresh phase starts from its own scheduled set.
			recruits = recruits[:0]
			lastPhase = phaseIdx
		}

		serving := serviceable(net, phaseSet, recruits)
		// One Reset per slot; every recruit below is an O(deg) Flip
		// instead of a full serviceable+recount pass per patch attempt.
		sess.Reset(serving, opt.K, net.Alive)
		uncovBuf = sess.AppendUndominated(uncovBuf[:0])
		uncovered := uncovBuf

		// Rung 1: local patching with exponential backoff.
		if len(uncovered) > 0 {
			for attempt := 0; attempt < patchAttempts && len(uncovered) > 0; attempt++ {
				res.PatchAttempts++
				if attempt > 0 {
					res.Retries++
				}
				repeats := 1 << attempt
				enlisted, stats, err := runPatch(g, net, serving, uncovered, opt.K, repeats, radio, opt.Hooks)
				res.Protocol.Add(stats)
				opt.Emit(obs.Patch(t, attempt, len(enlisted)))
				if err != nil {
					res.Score = meter.Score
					return res, fmt.Errorf("heal: slot %d: patch attempt %d: %w", t, attempt, err)
				}
				if len(enlisted) > 0 {
					res.Recruited += len(enlisted)
					for _, v := range enlisted {
						recruits = append(recruits, v)
						opt.Emit(obs.Recruit(t, v))
						// runPatch only returns serviceable non-serving nodes,
						// so each one is a single incremental membership delta.
						if !sess.Contains(v) {
							sess.Flip(v)
							serving = append(serving, v)
						}
					}
					uncovBuf = sess.AppendUndominated(uncovBuf[:0])
					uncovered = uncovBuf
				}
			}
			if len(uncovered) == 0 {
				res.PatchSuccesses++
				failStreak = 0
			}
		}

		// Rung 2: centralized re-planning over residual budgets.
		if len(uncovered) > 0 {
			failStreak++
			if failStreak >= replanAfter {
				failStreak = 0
				next := sched.Replan(g, net.Residual, opt.K, net.Alive)
				if next.Lifetime() > 0 {
					res.Replans++
					opt.Emit(obs.Replan(t, next.Lifetime()))
					cur, pos = next, 0
					recruits = recruits[:0]
					phaseSet, lastPhase = activeAt(cur, pos)
					serving = serviceable(net, phaseSet, recruits)
					// A replan swaps the whole set — pay a fresh Reset (rare).
					sess.Reset(serving, opt.K, net.Alive)
					uncovBuf = sess.AppendUndominated(uncovBuf[:0])
					uncovered = uncovBuf
				}
			}
		}

		// Rung 3: graceful degradation — the slot still runs.
		if len(uncovered) > 0 {
			res.DegradedSlots++
			opt.Emit(obs.Degraded(t, len(uncovered)))
		}

		// Every serving node can pay: serviceable and the patch protocol
		// pick only nodes that can, and nothing drains before this.
		served = net.DrainServiceable(served[:0], serving)
		res.EnergySpent += len(served)
		meter.Slot(t, len(served), sess)
		pos++
	}
	res.Score = meter.Score
	opt.Emit(obs.RunEnd("heal", len(res.Coverage), res.AchievedLifetime, res.Deaths))
	return res, nil
}

// activeAt returns the active set and phase index of slot pos in s, or
// (nil, -1) past the end. Zero-duration phases are skipped.
func activeAt(s *core.Schedule, pos int) ([]int, int) {
	for i, p := range s.Phases {
		if pos < p.Duration {
			return p.Set, i
		}
		pos -= p.Duration
	}
	return nil, -1
}

// serviceable merges the scheduled set with the surviving recruits and
// filters both down to the sorted nodes that can actually serve the slot.
func serviceable(net *energy.Network, phaseSet, recruits []int) []int {
	out := slices.DeleteFunc(slices.Concat(phaseSet, recruits), func(v int) bool { return !net.CanServe(v) })
	slices.Sort(out)
	return slices.Compact(out)
}
