package solver

import (
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/sched"
)

// pruneSolver is the first refinement pass registered behind the solver
// contract: it generates the greedy baseline schedule and then runs the
// sched.Squeeze pipeline over it — every phase is pruned to a minimal
// k-dominating subset by dropping redundant dominators on the domination
// kernel's incremental session (a read-only DropKeeps probe, then Flip), and
// the freed budget is re-extended into additional phases. The lifetime is
// therefore >= greedy's by construction, which the registry test pins.
//
// It is deliberately minimal — a proof of the metaheuristic shape ROADMAP
// item 2 wants (local-search refiners probing moves against the session
// API) rather than a full local search.
type pruneSolver struct{}

func init() { Register(pruneSolver{}) }

func (pruneSolver) Name() string { return NamePrune }

func (pruneSolver) Validate(inst *instance.Instance, spec Spec) error {
	return validateBudgets(inst, NamePrune, false)
}

func (pruneSolver) GuaranteedLifetime(*instance.Instance, Spec) int { return 0 }

func (pruneSolver) TruncK(inst *instance.Instance, _ Spec) int { return inst.Tolerance() }

func (pruneSolver) Generate(inst *instance.Instance, spec Spec, _ *rng.Source) *core.Schedule {
	base := sched.Replan(inst.Graph, inst.Budgets, inst.Tolerance(), nil)
	return sched.Squeeze(inst.Graph, base, inst.Budgets, inst.Tolerance())
}
