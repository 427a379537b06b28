// Package budgetflag is the single parser of the solver budget contract
// across the cmds: ltsched, ltsim and ltserve all register the same two
// flags — -budget (refinement candidate-move budget, in iterations) and
// -deadline (wall-clock budget, as a Go duration) — through one helper, so
// the spelling, defaults, and help text can never drift apart again. The
// ad-hoc spellings older tools in this space use (-iters, -iterations,
// -time-budget, -time-limit, -budget-ms, -deadline-ms) are registered as
// rejection stubs that fail parsing with a pointer to the canonical flag
// instead of being silently unknown.
package budgetflag

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/solver"
)

// Flags is the parsed budget contract of one cmd invocation.
type Flags struct {
	// Budget is the candidate-move budget of the refinement solvers
	// (tabu, anneal). 0 means the solver default; ignored by non-refining
	// algorithms.
	Budget int
	// Deadline is the wall-clock budget of one solve. 0 means none.
	Deadline time.Duration
}

// Register installs -budget and -deadline on fs and returns the value
// struct they parse into, alongside rejection stubs for the legacy
// spellings.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Budget, "budget", 0,
		"refinement iteration budget for tabu/anneal solvers (0 = solver default)")
	fs.DurationVar(&f.Deadline, "deadline", 0,
		"wall-clock budget per solve, e.g. 200ms or 2s (0 = none)")
	for _, r := range []rejected{
		{"iters", "-budget"},
		{"iterations", "-budget"},
		{"time-budget", "-deadline"},
		{"time-limit", "-deadline"},
		{"budget-ms", "-budget (iterations) or -deadline (wall clock)"},
		{"deadline-ms", "-deadline (a duration, e.g. 200ms)"},
	} {
		fs.Var(r, r.old, fmt.Sprintf("rejected; use %s", r.use))
	}
	return f
}

// rejected is a flag.Value that always fails with a redirect, so a user
// reaching for a familiar ad-hoc spelling gets the canonical one instead of
// "flag provided but not defined".
type rejected struct{ old, use string }

func (r rejected) String() string { return "" }
func (r rejected) Set(string) error {
	return fmt.Errorf("-%s is not a flag of this tool; use %s", r.old, r.use)
}

// Validate rejects negative values with actionable errors.
func (f *Flags) Validate() error {
	if f.Budget < 0 {
		return fmt.Errorf("-budget %d must be >= 0 (0 = solver default)", f.Budget)
	}
	if f.Deadline < 0 {
		return fmt.Errorf("-deadline %v must be >= 0 (0 = none)", f.Deadline)
	}
	return nil
}

// Apply stamps the contract into opt: the iteration budget directly, and a
// non-zero deadline as the absolute wall-clock bound now + Deadline.
func (f *Flags) Apply(opt *solver.Options, now time.Time) {
	opt.Budget = f.Budget
	if f.Deadline > 0 {
		opt.Deadline = now.Add(f.Deadline)
	}
}
