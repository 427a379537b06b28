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
	"sort"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/domset"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Options configures a self-healing execution. It follows the canonical
// shape documented in package obs, shared with sensim.Options: the
// tolerance K, the fault plan Chaos, and the embedded obs.Hooks carrying
// the tracing sinks.
type Options struct {
	// K is the required domination tolerance per slot (>= 1; 0 means 1).
	K int
	// Chaos is the fault plan injected during execution (zero value = none).
	// Its Radio, when set, is the patch protocol's medium; nil is a
	// reliable one.
	Chaos chaos.Plan
	// Hooks carries the observability sinks (obs.Hooks; the promoted Trace
	// field receives slot, crash/leak, patch, recruit, replan, degraded,
	// and protocol round events). The zero value is the no-op default: the
	// slot loop stays allocation-free.
	obs.Hooks
}

const (
	// patchAttempts bounds the recruitment retries per slot. Attempt a
	// rebroadcasts every protocol message 2^a times.
	patchAttempts = 3
	// replanAfter is the number of consecutive patch-failure slots that
	// triggers centralized re-planning.
	replanAfter = 2
)

// Result summarizes a self-healing execution. The coverage bookkeeping
// matches sensim.Result so the two runtimes are directly comparable.
type Result struct {
	// AchievedLifetime is the number of consecutive slots from time 0
	// during which every alive node was k-dominated by serving nodes.
	AchievedLifetime int
	// ScheduleLifetime is the nominal lifetime of the input schedule.
	ScheduleLifetime int
	// Coverage[t] is the fraction of alive nodes k-dominated in slot t.
	Coverage []float64
	// FirstViolation is the first slot that stayed under-covered after the
	// full escalation ladder, or -1.
	FirstViolation int
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
	res := Result{ScheduleLifetime: s.Lifetime(), FirstViolation: -1}
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
	recruits := map[int]bool{}
	lastPhase := -1

	opt.Emit(obs.RunStart("heal", g.N()))
	for t := 0; t < maxSlots; t++ {
		opt.Emit(obs.SlotStart(t))
		res.Deaths += inject.Inject(net, t)

		if net.AliveCount() == 0 && g.N() > 0 {
			// Dead network: no recruit or replan can revive anyone, so this
			// is a terminal coverage violation (same semantics as sensim.Run).
			res.Coverage = append(res.Coverage, 0)
			if res.FirstViolation == -1 {
				res.FirstViolation = t
			}
			opt.Emit(obs.SlotEnd(t, 0, 0, 0))
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
			recruits = map[int]bool{}
			lastPhase = -1
			phaseSet, phaseIdx = activeAt(cur, pos)
		}
		if phaseIdx != lastPhase {
			// Recruits backstop the phase that was broken when they were
			// enlisted; a fresh phase starts from its own scheduled set.
			recruits = map[int]bool{}
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
					return res, fmt.Errorf("heal: slot %d: patch attempt %d: %w", t, attempt, err)
				}
				if len(enlisted) > 0 {
					res.Recruited += len(enlisted)
					for _, v := range enlisted {
						recruits[v] = true
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
					recruits = map[int]bool{}
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

		served := net.DrainServiceable(serving)
		res.EnergySpent += len(served) * net.ActiveCost
		if len(served) != len(serving) {
			// A serving node could no longer pay for the slot (defensive:
			// nothing mid-slot drains today): only the paid nodes serve.
			sess.SetMembers(served)
		}

		alive := sess.AliveCount()
		covered := sess.CoveredCount()
		cov := 1.0 // only the 0-node network
		dominated := covered == alive
		if alive > 0 {
			cov = float64(covered) / float64(alive)
		} else if g.N() > 0 {
			// Dead non-empty network: "0 of 0 covered" is a coverage
			// violation, not perfect coverage — the vacuous-equality bug PR 2
			// fixed in sensim. Unreachable today thanks to the top-of-loop
			// dead check, but the scoring must not depend on that.
			cov = 0
			dominated = false
		}
		res.Coverage = append(res.Coverage, cov)
		opt.Emit(obs.SlotEnd(t, len(served), alive, cov))
		if dominated {
			if res.FirstViolation == -1 {
				res.AchievedLifetime = t + 1
			}
		} else if res.FirstViolation == -1 {
			res.FirstViolation = t
		}
		if alive == 0 && g.N() > 0 {
			break // terminal: no recruit or replan revives a dead network
		}
		pos++
	}
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
// filters both down to nodes that can actually serve the slot.
func serviceable(net *energy.Network, phaseSet []int, recruits map[int]bool) []int {
	var out []int
	seen := make(map[int]bool, len(phaseSet)+len(recruits))
	for _, v := range phaseSet {
		if !seen[v] && net.CanServe(v) {
			seen[v] = true
			out = append(out, v)
		}
	}
	for v := range recruits {
		if !seen[v] && net.CanServe(v) {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
