package experiments

import (
	"math"

	"repro/internal/chaos"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reconfig"
	"repro/internal/rng"
	"repro/internal/sched"
)

// E24 measures the lifetime cost of live reconfiguration: a network whose
// topology keeps changing (nodes replaced, batteries swapped) while the
// schedule is running, under seeded crashes and a lossy wake-up channel.
// Three arms replay the identical churn script: overlap-planned transitions
// (internal/reconfig keeps the outgoing dominators awake for 2 or 1 slots
// across each cutover, charged to residual budgets) versus the naive
// re-solve-and-swap (overlap 0 — the new schedule is installed cold). The
// wake-loss model is what separates them: a sleeping survivor misses the
// install with probability WakeLoss, so naive swaps lose the first slots of
// every transition, while the overlap window keeps the old dominators
// covering exactly those slots.
//
// achieved is the lifetime (consecutive covered slots until the first
// violation) — the honest metric, since overlap energy shortens the tail:
// planned arms may cover fewer total slots yet sustain a much longer unbroken
// prefix.
func runE24(cfg Config) *Table {
	t := &Table{
		Header: []string{"arm", "nominal", "achieved", "covered slots",
			"reconfigs", "degraded", "overlap energy", "energy", "deaths"},
	}
	root := rng.New(cfg.Seed + 24)
	n := 192
	crashes := 8
	if cfg.Quick {
		n, crashes = 96, 4
	}
	const b = 14
	g := gen.GNP(n, 8*math.Log(float64(n))/float64(n), root.Split())
	budgets := energy.Uniform(g, b)
	s := sched.Replan(g, budgets, 1, nil)
	horizon := s.Lifetime()

	// Forward the run's tracer into the simulator so reconfig and wake-miss
	// events land in the same stream as the trial markers. Trials run in
	// parallel, so serialize here once; mapTrials re-wraps the synchronized
	// tracer, which just nests the locks.
	simTrace := obs.Synchronized(cfg.Trace)
	cfg.Trace = simTrace

	type sample struct {
		nominal, achieved, covered    int
		reconfigs, degraded           int
		overlapEnergy, energy, deaths int
		ok                            bool
	}

	// One trial script — churn deltas at quarter points of the schedule plus
	// a seeded crash plan — is derived from the trial index alone, so every
	// arm of trial i replays it exactly.
	runArm := func(overlap, trial int) sample {
		if horizon < 4 {
			return sample{}
		}
		src := rng.New(cfg.Seed + 24 + uint64(trial)*1009)
		deltaSrc := src.Split()
		events := []reconfig.Change{
			{At: horizon / 4, Delta: churnDelta(n, b, deltaSrc)},
			{At: horizon / 2, Delta: churnDelta(n, b, deltaSrc)},
			{At: 3 * horizon / 4, Delta: churnDelta(n, b, deltaSrc)},
		}
		plan := chaos.Plan{Crashes: chaos.Crashes(g, crashes, horizon, src.Split()).Crashes}
		res, err := reconfig.Simulate(g, s, budgets, events, reconfig.SimOptions{
			K:        1,
			Overlap:  overlap,
			Seed:     cfg.Seed + 24 + uint64(trial),
			WakeLoss: 0.5,
			Chaos:    plan,
			Hooks:    obs.Hooks{Trace: simTrace},
		})
		if err != nil {
			panic("experiments: E24: " + err.Error())
		}
		return sample{
			nominal: horizon, achieved: res.AchievedLifetime, covered: res.CoveredSlots,
			reconfigs: res.Reconfigs, degraded: res.DegradedTransitions,
			overlapEnergy: res.OverlapEnergy, energy: res.EnergySpent,
			deaths: res.Deaths, ok: true,
		}
	}

	arms := []struct {
		name    string
		overlap int
	}{
		{"planned (overlap 2)", 2},
		{"planned (overlap 1)", 1},
		{"naive swap (overlap 0)", 0},
	}
	for _, a := range arms {
		samples := mapTrials(cfg, "E24", cfg.trials(), func(i int) sample {
			return runArm(a.overlap, i)
		})
		var achieved, covered, deaths []float64
		var reconfigs, degraded, overlapEnergy, energy, got int
		for _, sm := range samples {
			if !sm.ok {
				continue
			}
			got++
			achieved = append(achieved, float64(sm.achieved))
			covered = append(covered, float64(sm.covered))
			deaths = append(deaths, float64(sm.deaths))
			reconfigs += sm.reconfigs
			degraded += sm.degraded
			overlapEnergy += sm.overlapEnergy
			energy += sm.energy
		}
		if got == 0 {
			continue
		}
		t.AddRow(a.name,
			itoa(horizon),
			f2(mean(achieved)),
			f2(mean(covered)),
			itoa(reconfigs/got), itoa(degraded/got),
			itoa(overlapEnergy/got), itoa(energy/got),
			f2(mean(deaths)))
	}
	t.Notes = append(t.Notes,
		"all arms replay the identical churn script: node replacements + battery swaps at the nominal schedule's quarter points (later events only fire while a schedule is still running), plus seeded crashes",
		"a sleeping survivor misses each install with probability 0.5 (wake loss); nodes awake at cutover and freshly provisioned nodes always learn the new schedule",
		"achieved is the consecutive covered prefix (the lifetime definition); overlap energy is residual slots spent keeping outgoing dominators awake",
		"planned transitions trade tail coverage for an unbroken prefix — compare achieved, not covered slots")
	return t
}

// churnDelta is one step of the churn script: the highest-ID node is swapped
// out for a fresh unit (full battery, wired to three random survivors) and
// one random survivor gets a battery swap back to full. Node count is
// preserved, so successive deltas compose without ID bookkeeping.
func churnDelta(n, b int, src *rng.Source) graph.Delta {
	perm := src.Perm(n - 1)
	edges := make([][2]int, 3)
	for i, v := range perm[:3] {
		edges[i] = [2]int{v, n - 1}
	}
	return graph.Delta{
		RemoveNodes: []int{n - 1},
		AddNodes:    1,
		NewBudgets:  []int{b},
		AddEdges:    edges,
		SetBudgets:  []graph.BudgetUpdate{{Node: perm[3], Budget: b}},
	}
}
