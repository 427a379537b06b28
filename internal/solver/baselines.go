package solver

import (
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/instance"
	"repro/internal/rng"
)

// The deterministic baselines ltsched exposes — greedy, LP relaxation, and
// the branch-and-bound optimum — ride the same driver as the randomized
// algorithms. They ignore the randomness source, and their nil guarantee
// (0) makes the driver's early-stop fire after the first attempt, so a solve costs exactly one generation. Running them
// through the driver still buys the shared ValidateWith feasibility gate:
// an infeasible baseline schedule fails loudly instead of being reported.

// exactNodeCap bounds the solvers that enumerate minimal dominating sets
// (exponential in n). The cap matches the gate cmd/ltsched has enforced
// since the baseline was added, and doubles as the auto portfolio's
// "small enough for exact" threshold.
const exactNodeCap = 24

// lpSchedule solves the fractional LP relaxation over all minimal
// k-dominating sets and floors the phase durations. Flooring only shrinks
// per-node usage, so the integral schedule inherits feasibility from the
// LP solution while losing at most one slot per set.
func lpSchedule(inst *instance.Instance, _ Spec, _ *rng.Source) *core.Schedule {
	_, sets, durs, err := exact.Fractional(inst.Graph, inst.Budgets, inst.Tolerance())
	if err != nil {
		// The LP can only fail on malformed input, which Validate already
		// rejected; an empty schedule keeps the driver's no-panic contract.
		return &core.Schedule{}
	}
	s := &core.Schedule{}
	for i, set := range sets {
		if d := int(durs[i]); d > 0 {
			s.Phases = append(s.Phases, core.Phase{Set: set, Duration: d})
		}
	}
	return s
}

// exactSchedule is the branch-and-bound optimum (exact.Integral).
func exactSchedule(inst *instance.Instance, _ Spec, _ *rng.Source) *core.Schedule {
	_, sets, durs := exact.Integral(inst.Graph, inst.Budgets, inst.Tolerance())
	s := &core.Schedule{}
	for i, set := range sets {
		if durs[i] > 0 {
			s.Phases = append(s.Phases, core.Phase{Set: set, Duration: durs[i]})
		}
	}
	return s
}
