// Package solver is the single home of the paper's execution shape: every
// scheduling algorithm in the repository — the three randomized algorithms
// of the paper, the general k-tolerant extension, the deterministic
// greedy/LP/exact baselines, the anytime refiners, the grid tiling and the
// auto portfolio — is one row of the registry table, and one generic driver
// (Solve) runs the WHP retry loop that used to be copied per algorithm:
// generate a raw schedule, truncate at the first non-k-dominating phase,
// keep the best, stop early once the paper's guaranteed lifetime is
// reached.
//
// A row is a Solver value. Its traits are fields that Validate checks
// (uniform budgets, tolerance 1, the exact solvers' node cap, a tiling no
// refiner may start from); the code that differs per algorithm is three
// funcs: the w.h.p. guarantee, the schedule generator, and the refiners'
// move policy. docs/ALGORITHMS.md shows the same table.
//
// Solvers consume a typed instance.Instance — graph, budgets, tolerance,
// and a verified structural classification — rather than a bare
// (g, budgets) pair. That makes structure-aware dispatch a first-class
// registry feature: the "grid" solver reads the instance's certified
// grid/torus embedding, and "auto" picks a concrete algorithm per instance
// (grid → grid, small → exact, else greedy).
//
// Callers resolve algorithms by registry name ("uniform", "general", "ft",
// "generalft", "greedy", "lp", "exact", "grid", "auto", ...); the serve
// layer, cmd/ltsched, and the experiments all go through this registry
// instead of switching on algorithm names themselves.
package solver

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Canonical registry names. The paper's algorithms keep the wire names the
// serve layer has used since PR 4; the deterministic baselines take the
// names cmd/ltsched exposes.
const (
	NameUniform   = "uniform"   // Algorithm 1: uniform batteries
	NameGeneral   = "general"   // Algorithm 2: arbitrary batteries
	NameFT        = "ft"        // Algorithm 3: uniform batteries, k-tolerant
	NameGeneralFT = "generalft" // repo extension: arbitrary batteries, k-tolerant
	NameGreedy    = "greedy"    // deterministic greedy baseline (sched.Replan shape)
	NameLP        = "lp"        // LP relaxation with floored phase durations
	NameExact     = "exact"     // branch-and-bound optimum (small graphs only)
	NamePrune     = "prune"     // greedy + per-phase redundancy pruning + extension
	NameTabu      = "tabu"      // anytime refiner: tabu search over a base schedule
	NameAnneal    = "anneal"    // anytime refiner: simulated annealing over a base schedule
	NameGrid      = "grid"      // pattern-based dominating-set tiling on verified grids/tori
	NameAuto      = "auto"      // portfolio dispatch on the instance's structure
)

// Spec selects a registered algorithm and its parameters. The domination
// tolerance is not here — it is a property of the instance
// (instance.Instance.K), not of the algorithm.
type Spec struct {
	// Name is the registry name of the algorithm.
	Name string
	// KConst is the color-range constant of the randomized algorithms.
	// <= 0 means the paper's 3.
	KConst float64
	// Base names the solver whose schedule a refinement solver (tabu,
	// anneal) starts from; empty means greedy. Non-refining solvers reject
	// a non-empty Base.
	Base string
}

func (s Spec) normalize() Spec {
	if s.KConst <= 0 {
		s.KConst = 3
	}
	return s
}

// coreOptions is the core.Options form of the spec with an explicit source.
func (s Spec) coreOptions(src *rng.Source) core.Options {
	return core.Options{K: s.KConst, Src: src}
}

// Solver is one row of the registry: a scheduling algorithm's name, the
// traits Validate checks, and the code that differs per algorithm. Rows are
// stateless: all per-call state (instance, randomness) arrives through the
// arguments, so one row serves concurrent callers.
type Solver struct {
	name string
	// uniform: the algorithm needs uniform batteries (Algorithms 1 and 3).
	uniform bool
	// tol1: the algorithm builds 1-dominating schedules only. Silently
	// handing one to a caller who asked for k-tolerance would be a
	// correctness trap, so Validate rejects tolerance > 1.
	tol1 bool
	// small: the algorithm enumerates minimal dominating sets (exponential
	// in n) and is limited to exactNodeCap nodes.
	small bool
	// tiling: the schedules are deterministic pattern tilings already
	// within a boundary term of optimal; the refiners' swap moves would only
	// churn them, so no refiner may start from this solver.
	tiling bool
	// guarantee is the w.h.p. lifetime target of the paper's analysis
	// (Theorems 4.3/5.3/6.2), the driver's early-stop threshold. Nil means
	// 0, which makes the driver accept the first attempt.
	guarantee func(inst *instance.Instance, spec Spec) int
	// generate produces one raw schedule draw; the driver truncates it at
	// the first phase that is not k-dominating.
	generate func(inst *instance.Instance, spec Spec, src *rng.Source) *core.Schedule
	// policy, set on the refiners only, is the move acceptance policy of
	// the anytime local search: the driver runs the base solver named by
	// Spec.Base, then refines its schedule under this policy.
	policy func(n, budget int) movePolicy
}

// registry lists every solver. auto has no row code of its own: Effective
// replaces it by the solver autoPick names before anything else runs.
var registry = []Solver{
	{name: NameUniform, uniform: true, tol1: true,
		guarantee: func(inst *instance.Instance, spec Spec) int {
			return core.GuaranteedPhases(inst.Graph, spec.coreOptions(nil)) * uniformBudget(inst.Budgets)
		},
		generate: func(inst *instance.Instance, spec Spec, src *rng.Source) *core.Schedule {
			return core.Uniform(inst.Graph, uniformBudget(inst.Budgets), spec.coreOptions(src))
		}},
	{name: NameGeneral, tol1: true,
		guarantee: func(inst *instance.Instance, spec Spec) int {
			return core.GeneralGuaranteedSlots(inst.Graph, inst.Budgets, spec.coreOptions(nil))
		},
		generate: func(inst *instance.Instance, spec Spec, src *rng.Source) *core.Schedule {
			return core.General(inst.Graph, inst.Budgets, spec.coreOptions(src))
		}},
	{name: NameFT, uniform: true,
		guarantee: func(inst *instance.Instance, spec Spec) int {
			return core.FaultTolerantGuarantee(inst.Graph, uniformBudget(inst.Budgets), inst.Tolerance(), spec.coreOptions(nil))
		},
		generate: func(inst *instance.Instance, spec Spec, src *rng.Source) *core.Schedule {
			return core.FaultTolerant(inst.Graph, uniformBudget(inst.Budgets), inst.Tolerance(), spec.coreOptions(src))
		}},
	{name: NameGeneralFT,
		guarantee: func(inst *instance.Instance, spec Spec) int {
			return core.GeneralGuaranteedSlots(inst.Graph, inst.Budgets, spec.coreOptions(nil)) / inst.Tolerance()
		},
		generate: func(inst *instance.Instance, spec Spec, src *rng.Source) *core.Schedule {
			return core.GeneralFaultTolerant(inst.Graph, inst.Budgets, inst.Tolerance(), spec.coreOptions(src))
		}},
	{name: NameGreedy, generate: func(inst *instance.Instance, _ Spec, _ *rng.Source) *core.Schedule {
		return sched.Replan(inst.Graph, inst.Budgets, inst.Tolerance(), nil)
	}},
	{name: NameLP, small: true, generate: lpSchedule},
	{name: NameExact, small: true, generate: exactSchedule},
	{name: NamePrune, generate: func(inst *instance.Instance, _ Spec, _ *rng.Source) *core.Schedule {
		base := sched.Replan(inst.Graph, inst.Budgets, inst.Tolerance(), nil)
		return sched.Squeeze(inst.Graph, base, inst.Budgets, inst.Tolerance())
	}},
	{name: NameTabu, policy: newTabuPolicy},
	{name: NameAnneal, policy: newAnnealPolicy},
	{name: NameGrid, tiling: true, generate: gridGenerate},
	{name: NameAuto},
}

// Name returns the registry name.
func (s *Solver) Name() string { return s.name }

// refiner reports whether s is an anytime refiner (tabu, anneal).
func (s *Solver) refiner() bool { return s.policy != nil }

// guaranteed is the driver's early-stop target for s on inst.
func (s *Solver) guaranteed(inst *instance.Instance, spec Spec) int {
	if s.guarantee == nil {
		return 0
	}
	return s.guarantee(inst, spec)
}

// Validate rejects malformed (instance, spec) combinations with an
// actionable error — it is the trust boundary that lets the driver
// guarantee the core constructors never panic. An infeasible-but-well-
// formed instance (e.g. tolerance above the minimum closed neighborhood) is
// NOT an error: it yields an empty schedule, matching core. auto validates
// the solver it dispatches to. A non-refiner rejects any base. A refiner
// resolves its base through the auto dispatch, so a base of "auto" is
// checked against what auto picks on this instance, and rejects a base that
// is itself a refiner or a tiling: the serve layer surfaces those as a 400
// at decode time.
func (s *Solver) Validate(inst *instance.Instance, spec Spec) error {
	if s.name == NameAuto {
		return mustGet(autoPick(inst)).Validate(inst, spec)
	}
	if s.tol1 && inst.Tolerance() > 1 {
		return fmt.Errorf("solver: algorithm %q ignores k; use %s or %s for tolerance %d",
			s.name, NameFT, NameGeneralFT, inst.Tolerance())
	}
	if s.small && inst.N() > exactNodeCap {
		return fmt.Errorf("solver: %s solver limited to %d nodes (got %d)", s.name, exactNodeCap, inst.N())
	}
	if len(inst.Budgets) != inst.N() {
		return fmt.Errorf("solver: %s: %d budgets for %d nodes", s.name, len(inst.Budgets), inst.N())
	}
	for v, b := range inst.Budgets {
		if b < 0 {
			return fmt.Errorf("solver: %s: budgets[%d] = %d must be >= 0", s.name, v, b)
		}
		if s.uniform && b != inst.Budgets[0] {
			return fmt.Errorf("solver: algorithm %q needs uniform batteries, but budgets[%d] = %d != budgets[0] = %d",
				s.name, v, b, inst.Budgets[0])
		}
	}
	if !s.refiner() {
		if spec.Base != "" {
			return fmt.Errorf("solver: %s is not a refiner; base solver %q is only meaningful with one of %v",
				s.name, spec.Base, RefinerNames())
		}
		return nil
	}
	base, bspec, err := Effective(inst, baseSpec(spec))
	if err != nil {
		return fmt.Errorf("solver: %s: invalid base: %w", s.name, err)
	}
	if base.refiner() {
		return fmt.Errorf("solver: %s: base solver %q is itself a refiner; refiners do not stack", s.name, bspec.Name)
	}
	if base.tiling {
		return fmt.Errorf("solver: %s: base solver %q is a non-refinable fast path (its schedules are deterministic pattern tilings); drop the refine stage or pick a refinable base", s.name, bspec.Name)
	}
	return base.Validate(inst, bspec)
}

// baseSpec is the spec of the base solver a refiner starts from, derived
// from the refiner's own spec (empty Base means greedy).
func baseSpec(spec Spec) Spec {
	base := spec.Base
	if base == "" {
		base = NameGreedy
	}
	return Spec{Name: base, KConst: spec.KConst}
}

// Get returns the solver registered under name.
func Get(name string) (*Solver, bool) {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i], true
		}
	}
	return nil, false
}

// mustGet is Get for the names the package itself picks.
func mustGet(name string) *Solver {
	s, ok := Get(name)
	if !ok {
		panic("solver: no registry row " + name)
	}
	return s
}

// Names returns the registered names, sorted.
func Names() []string {
	return names(func(*Solver) bool { return true })
}

// Resolve is Get with an actionable error listing the registry contents.
func Resolve(name string) (*Solver, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("solver: unknown algorithm %q (have %v)", name, Names())
	}
	return s, nil
}

// RefinerNames returns the names of the anytime refiners, sorted. The cmds
// use it to document what -refine accepts.
func RefinerNames() []string {
	return names((*Solver).refiner)
}

// names returns the sorted names of the rows keep accepts.
func names(keep func(*Solver) bool) []string {
	var out []string
	for i := range registry {
		if keep(&registry[i]) {
			out = append(out, registry[i].name)
		}
	}
	sort.Strings(out)
	return out
}

// Effective resolves spec to the solver that will actually generate
// schedules for inst: for a concrete name it is Resolve plus
// normalization; for "auto" it runs the portfolio dispatch on the
// instance's verified structure and returns the chosen concrete solver
// with spec.Name rewritten. Every layer that needs to know what auto
// means on a given instance (the driver, refiner validation, serve's
// decode-time pipeline check, ltsched's reporting) goes through here, so
// the dispatch rule exists exactly once.
func Effective(inst *instance.Instance, spec Spec) (*Solver, Spec, error) {
	spec = spec.normalize()
	sv, err := Resolve(spec.Name)
	if err != nil {
		return nil, spec, err
	}
	if spec.Name != NameAuto {
		return sv, spec, nil
	}
	spec.Name = autoPick(inst)
	return mustGet(spec.Name), spec, nil
}

// Guaranteed returns the w.h.p. lifetime target of the named algorithm on
// this instance — the value the driver stops early at. Exported for layers
// (plan, ltsched) that report the guarantee next to the achieved lifetime.
func Guaranteed(inst *instance.Instance, spec Spec) (int, error) {
	sv, spec, err := Effective(inst, spec)
	if err != nil {
		return 0, err
	}
	if err := sv.Validate(inst, spec); err != nil {
		return 0, err
	}
	return sv.guaranteed(inst, spec), nil
}

// uniformBudget returns the common per-node budget of a validated uniform
// budget vector (0 on an empty graph).
func uniformBudget(budgets []int) int {
	if len(budgets) == 0 {
		return 0
	}
	return budgets[0]
}
