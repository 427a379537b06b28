package solver

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
)

// ErrCanceled reports that the cancel contract (Options.Cancel or
// Options.Deadline) fired before the driver produced a schedule. The serve
// layer maps it to 504.
var ErrCanceled = errors.New("solver: canceled")

// Options configures the Solve driver. It replaces the positional
// parameters the Best/Race signatures used to accumulate: every budget
// knob — retry count, refinement iteration budget, wall-clock deadline,
// cooperative cancel, race width — lives here, so growing the contract
// never changes a signature again.
type Options struct {
	// Tries bounds the WHP retry loop of one attempt. <= 0 means 1.
	Tries int
	// Budget bounds the candidate moves a refinement solver (tabu, anneal)
	// may charge after the base schedule is drawn. <= 0 means
	// DefaultRefineBudget. Non-refining solvers ignore it.
	Budget int
	// Deadline, when non-zero, is the wall-clock bound of the whole solve:
	// once it passes, the WHP loop stops with ErrCanceled and a running
	// refinement returns its best schedule so far (the anytime contract).
	// It composes with Cancel — whichever fires first wins.
	Deadline time.Time
	// Cancel, when non-nil, is polled before every retry and refinement
	// move; once it reports true the solve stops and returns ErrCanceled,
	// also when it fires during refinement. It must be sticky: once true,
	// it stays true. This is the serve path's request-deadline check.
	Cancel func() bool
	// Hooks receives one obs.Attempt event per retry and one obs.Refine
	// event per refinement pass. The zero value is the free no-op.
	Hooks obs.Hooks
	// Src seeds the randomized solvers. Nil means a fixed default seed
	// (rng.New(1)), matching core.Options.
	Src *rng.Source
	// RaceWidth is the number of independently seeded attempts Solve races
	// (rng.SplitN children, deterministic winner). <= 1 runs one
	// sequential attempt.
	RaceWidth int
}

// expired is the WHP loop's poll, once per retry. It reads the clock: on an
// oversubscribed host, arming DeadlinePoll's timer just before the first
// retry can stall the attempt long enough for a short Deadline to lapse
// before any schedule is drawn.
func (o Options) expired() bool {
	return (o.Cancel != nil && o.Cancel()) || (!o.Deadline.IsZero() && !time.Now().Before(o.Deadline))
}

// cancelFunc folds Cancel and Deadline into the refinement's sticky
// per-move poll, plus the stop func that releases the deadline's timer. The
// poll is nil when neither is set, so the move loop skips it entirely.
func (o Options) cancelFunc() (poll func() bool, stop func()) {
	cancel := o.Cancel
	if o.Deadline.IsZero() {
		return cancel, func() {}
	}
	expired, stop := DeadlinePoll(o.Deadline)
	fired := false
	return func() bool {
		fired = fired || (cancel != nil && cancel()) || expired()
		return fired
	}, stop
}

// DeadlinePoll returns a sticky poll that reports true once deadline has
// passed, and the stop func that releases its timer. The refiners poll
// before every move, so the poll reads no clock (time.Now can cost about a
// hundred nanoseconds on a VM): a runtime timer sets a flag at the deadline
// and polling is one atomic load. It may report a passed deadline late, by
// as long as the timer's goroutine waits to run, but never early; a
// deadline already past fires on the first poll. After stop the poll never
// fires unless it already had. The poll is safe for concurrent use.
func DeadlinePoll(deadline time.Time) (poll func() bool, stop func()) {
	fired := new(atomic.Bool)
	d := time.Until(deadline)
	fired.Store(d <= 0)
	t := time.AfterFunc(d, func() { fired.Store(true) })
	return fired.Load, func() { t.Stop() }
}

// Solve is the single driver entry point: it resolves spec to its
// effective solver (running the auto portfolio dispatch on the instance's
// structure when spec.Name is "auto"), validates the instance once, and
// runs opt.RaceWidth independently seeded attempts (sequentially for
// width <= 1, concurrently otherwise), returning a
// deterministic winner — best lifetime, lowest attempt index breaking
// ties.
//
// Each attempt is the WHP retry loop the legacy core.*WHP functions
// hard-coded per algorithm: up to Tries draws, each truncated at its first
// non-k-dominating phase, keeping the best truncated schedule and stopping
// early once it reaches the solver's guaranteed lifetime. When spec.Name
// resolves to a refiner (tabu, anneal), the attempt composes a pipeline:
// the base solver named by spec.Base (itself resolved through the auto
// dispatch when it says "auto") runs the WHP loop first, then the
// refiner's local search improves its schedule under the
// Budget/Deadline/Cancel contract. The final schedule passes the ValidateWith feasibility gate before being
// returned — a violation there is a solver bug and surfaces as an error,
// never as a bad schedule.
//
// With the same source, tries, and spec, a width-1 Solve reproduces the
// legacy per-algorithm loops draw for draw (the seed-pinned equivalence
// tests pin this byte for byte), and attempt i of a raced solve draws from
// the i-th child of opt.Src, so the outcome depends only on (seed, width,
// spec, tries, budget) — never on goroutine scheduling.
func Solve(inst *instance.Instance, spec Spec, opt Options) (*core.Schedule, error) {
	sv, spec, err := Effective(inst, spec)
	if err != nil {
		return nil, err
	}
	if err := sv.Validate(inst, spec); err != nil {
		return nil, err
	}
	if opt.RaceWidth <= 1 {
		return solveOne(sv, inst, spec, opt)
	}
	return race(sv, inst, spec, opt)
}

// solveOne runs one sequential attempt: the WHP loop, plus the refinement
// stage when sv is a refiner. spec is normalized and validated. Every
// solver truncates and validates at the instance's tolerance: a
// tolerance-1 solver has rejected any other.
func solveOne(sv *Solver, inst *instance.Instance, spec Spec, opt Options) (*core.Schedule, error) {
	src := opt.Src
	if src == nil {
		src = rng.New(1)
	}
	sess := domset.NewSession(inst.Graph)
	k := inst.Tolerance()

	loop, loopSpec := sv, spec
	if sv.refiner() {
		// The base solver draws the starting schedule under its own
		// guarantee; the refiner then improves it.
		base, bspec, err := Effective(inst, baseSpec(spec))
		if err != nil {
			return nil, fmt.Errorf("solver: %s: %w", spec.Name, err)
		}
		loop, loopSpec = base, bspec
	}

	tries := opt.Tries
	if tries <= 0 {
		tries = 1
	}
	target := loop.guaranteed(inst, loopSpec)

	var best *core.Schedule
	for try := 0; try < tries; try++ {
		if opt.expired() {
			return nil, ErrCanceled
		}
		s := loop.generate(inst, loopSpec, src).TruncateInvalidWith(sess, k)
		if best == nil || s.Lifetime() > best.Lifetime() {
			best = s
		}
		opt.Hooks.Emit(obs.Attempt(loopSpec.Name, try, s.Lifetime(), best.Lifetime()))
		if best.Lifetime() >= target {
			break
		}
	}

	if sv.refiner() {
		budget := opt.Budget
		if budget <= 0 {
			budget = DefaultRefineBudget
		}
		cancel, stop := opt.cancelFunc()
		defer stop()
		best = refineSchedule(inst, best, &refinement{
			Budget: budget,
			Cancel: cancel,
			Src:    src,
			Hooks:  opt.Hooks,
		}, sv.name, sv.policy(inst.N(), budget), nil)
		// The anytime rule: a lapsed Deadline (the time budget) keeps the
		// refiner's best so far, but a fired Cancel fails the solve.
		if opt.Cancel != nil && opt.Cancel() {
			return nil, ErrCanceled
		}
	}
	if err := best.ValidateWith(sess, inst.Budgets, k); err != nil {
		return nil, fmt.Errorf("solver: %s produced infeasible schedule: %w", spec.Name, err)
	}
	return best, nil
}

// race runs opt.RaceWidth solveOne attempts concurrently, on up to
// GOMAXPROCS goroutines, and returns the deterministic winner. sv is
// resolved, spec normalized and validated. A fired cancel surfaces as
// ErrCanceled even when some attempts finished.
func race(sv *Solver, inst *instance.Instance, spec Spec, opt Options) (*core.Schedule, error) {
	width := opt.RaceWidth
	src := opt.Src
	if src == nil {
		src = rng.New(1)
	}
	children := src.SplitN(width)
	// One lock around the caller's tracer: attempts emit concurrently.
	hooks := obs.Hooks{Trace: obs.Synchronized(opt.Hooks.Trace)}

	results := make([]*core.Schedule, width)
	errs := make([]error, width)
	par.ForEach(width, func(i int) {
		o := opt
		o.Src = children[i]
		o.Hooks = hooks
		o.RaceWidth = 1
		results[i], errs[i] = solveOne(sv, inst, spec, o)
	})

	var firstErr error
	var best *core.Schedule
	for i := 0; i < width; i++ {
		if errs[i] != nil {
			if errors.Is(errs[i], ErrCanceled) {
				return nil, ErrCanceled
			}
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		if best == nil || results[i].Lifetime() > best.Lifetime() {
			best = results[i]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return best, nil
}
