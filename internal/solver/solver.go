// Package solver is the single home of the paper's execution shape: every
// scheduling algorithm in the repository — the three randomized algorithms
// of the paper, the general k-tolerant extension, and the deterministic
// greedy/LP/exact baselines — registers here behind one Solver interface,
// and one generic driver (Solve) runs the WHP retry loop that used to be
// copied per algorithm: generate a raw schedule, truncate at the first
// non-k-dominating phase, keep the best, stop early once the paper's
// guaranteed lifetime is reached.
//
// Solvers consume a typed instance.Instance — graph, budgets, tolerance,
// and a verified structural classification — rather than a bare
// (g, budgets) pair. That makes structure-aware dispatch a first-class
// registry feature: the "grid" solver reads the instance's certified
// grid/torus embedding, and the "auto" portfolio solver picks a concrete
// algorithm per instance (grid → grid, small → exact, else greedy).
//
// Callers resolve algorithms by registry name ("uniform", "general", "ft",
// "generalft", "greedy", "lp", "exact", "grid", "auto", ...); the serve
// layer, cmd/ltsched, and the experiments all go through this registry
// instead of switching on algorithm names themselves.
package solver

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/rng"
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

// Solver is one registered scheduling algorithm. Implementations are
// stateless values: all per-call state (instance, randomness) arrives
// through the method arguments, so one instance serves concurrent callers.
type Solver interface {
	// Name returns the registry name.
	Name() string
	// Validate rejects malformed (instance, spec) combinations with an
	// actionable error — it is the trust boundary that lets the driver
	// guarantee the core constructors never panic. An infeasible-but-well-
	// formed instance (e.g. tolerance above the minimum closed neighborhood)
	// is NOT an error: it yields an empty schedule, matching core.
	Validate(inst *instance.Instance, spec Spec) error
	// GuaranteedLifetime returns the w.h.p. lifetime target of the paper's
	// analysis — the driver's early-stop threshold. Deterministic solvers
	// return 0, which makes the driver accept their first (only meaningful)
	// attempt.
	GuaranteedLifetime(inst *instance.Instance, spec Spec) int
	// TruncK returns the domination tolerance the driver truncates and
	// validates with (the tolerance-1 algorithms pin 1; the k-tolerant
	// ones return the instance's tolerance).
	TruncK(inst *instance.Instance, spec Spec) int
	// Generate produces one raw schedule draw. The driver truncates it at
	// the first non-TruncK-dominating phase.
	Generate(inst *instance.Instance, spec Spec, src *rng.Source) *core.Schedule
}

// nonRefinable is the opt-out capability a solver implements when its
// schedules are deterministic fast-path artifacts that the anytime
// refiners must not be composed onto (the grid tiling solver). The serve
// layer surfaces the rejection as a 400 at decode time.
type nonRefinable interface {
	RefinableBase() bool
}

// refinableBase reports whether sv's schedules may seed a refiner.
func refinableBase(sv Solver) bool {
	if nr, ok := sv.(nonRefinable); ok {
		return nr.RefinableBase()
	}
	return true
}

var (
	regMu    sync.RWMutex
	registry = map[string]Solver{}
)

// Register adds s to the registry. Duplicate names are a programming error
// and panic, mirroring the experiments registry.
func Register(s Solver) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name()]; dup {
		panic(fmt.Sprintf("solver: duplicate registration of %q", s.Name()))
	}
	registry[s.Name()] = s
}

// Get returns the solver registered under name.
func Get(name string) (Solver, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Resolve is Get with an actionable error listing the registry contents.
func Resolve(name string) (Solver, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("solver: unknown algorithm %q (have %v)", name, Names())
	}
	return s, nil
}

// RefinerNames returns the registered names that implement the Refiner
// capability, sorted. The cmds use it to document what -refine accepts.
func RefinerNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var names []string
	for n, s := range registry {
		if _, ok := s.(Refiner); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Effective resolves spec to the solver that will actually generate
// schedules for inst: for a concrete name it is Resolve plus
// normalization; for "auto" it runs the portfolio dispatch on the
// instance's verified structure and returns the chosen concrete solver
// with spec.Name rewritten. Every layer that needs to know what auto
// means on a given instance (the driver, refiner validation, serve's
// decode-time pipeline check, ltsched's reporting) goes through here, so
// the dispatch rule exists exactly once.
func Effective(inst *instance.Instance, spec Spec) (Solver, Spec, error) {
	spec = spec.normalize()
	sv, err := Resolve(spec.Name)
	if err != nil {
		return nil, spec, err
	}
	if spec.Name != NameAuto {
		return sv, spec, nil
	}
	// autoPick names one of the built-in grid, exact and greedy solvers.
	spec.Name = autoPick(inst)
	eff, err := Resolve(spec.Name)
	return eff, spec, err
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
	return sv.GuaranteedLifetime(inst, spec), nil
}

// validateBudgets is the shape check shared by every solver: one
// non-negative budget per node. needUniform additionally demands all
// entries agree (Algorithms 1 and 3).
func validateBudgets(inst *instance.Instance, name string, needUniform bool) error {
	if len(inst.Budgets) != inst.N() {
		return fmt.Errorf("solver: %s: %d budgets for %d nodes", name, len(inst.Budgets), inst.N())
	}
	for v, b := range inst.Budgets {
		if b < 0 {
			return fmt.Errorf("solver: %s: budgets[%d] = %d must be >= 0", name, v, b)
		}
		if needUniform && b != inst.Budgets[0] {
			return fmt.Errorf("solver: algorithm %q needs uniform batteries, but budgets[%d] = %d != budgets[0] = %d",
				name, v, b, inst.Budgets[0])
		}
	}
	return nil
}

// uniformBudget returns the common per-node budget of a validated uniform
// budget vector (0 on an empty graph).
func uniformBudget(budgets []int) int {
	if len(budgets) == 0 {
		return 0
	}
	return budgets[0]
}
