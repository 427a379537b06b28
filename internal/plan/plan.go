// Package plan is the high-level facade a deployment engineer would use:
// hand it node positions, a radio range and battery budgets, and it returns
// a validated cluster-lifetime plan — graph, schedule, bounds, guarantees —
// choosing the right algorithm from the paper automatically (uniform /
// general / k-tolerant) and optionally squeezing extra lifetime with the
// centralized post-pass.
package plan

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/solver"
)

// retries bounds the WHP retry loop of the paper's randomized algorithms.
const retries = 30

// Spec describes the deployment and the scheduling requirements.
type Spec struct {
	// Points are the node positions; the communication graph is their unit
	// disk graph at Radius.
	Points []geom.Point
	// Radius is the radio range (> 0).
	Radius float64
	// Batteries are per-node duty budgets. A single-element slice is
	// broadcast to all nodes.
	Batteries []int
	// Tolerance is the required number of clusterheads per neighborhood
	// (>= 1). Values above 1 demand uniform batteries.
	Tolerance int
	// Seed makes the plan reproducible.
	Seed uint64
	// Squeeze applies the centralized Minimalize+Extend post-pass,
	// trading the paper's locality for lifetime.
	Squeeze bool
}

// Plan is a validated scheduling plan.
type Plan struct {
	Graph      *graph.Graph
	Batteries  []int
	Schedule   *core.Schedule
	Algorithm  string // which of the paper's algorithms was used
	UpperBound int    // Lemma 4.1/5.1/6.1 bound on any schedule
	Guaranteed int    // w.h.p. lifetime guarantee of the raw algorithm
	Tolerance  int
}

// Build computes a plan. The returned schedule is always feasible (it is
// validated before returning; a validation failure is a bug and surfaces as
// an error, never as a bad plan).
func Build(spec Spec) (*Plan, error) {
	n := len(spec.Points)
	if n == 0 {
		return nil, fmt.Errorf("plan: no nodes")
	}
	if spec.Radius <= 0 {
		return nil, fmt.Errorf("plan: radius %v must be positive", spec.Radius)
	}
	if spec.Tolerance < 1 {
		spec.Tolerance = 1
	}

	batteries, uniform, err := normalizeBatteries(spec.Batteries, n)
	if err != nil {
		return nil, err
	}
	if spec.Tolerance > 1 && !uniform {
		return nil, fmt.Errorf("plan: tolerance %d requires uniform batteries (paper's Algorithm 3)", spec.Tolerance)
	}

	g := gen.UDG(spec.Points, spec.Radius)
	if g.MinDegree()+1 < spec.Tolerance {
		return nil, fmt.Errorf("plan: some node has only %d closed neighbors; tolerance %d is infeasible",
			g.MinDegree()+1, spec.Tolerance)
	}

	src := rng.New(spec.Seed)
	p := &Plan{Graph: g, Batteries: batteries, Tolerance: spec.Tolerance}

	// Pick the paper algorithm by registry name; the solver driver owns the
	// retry/truncate/keep-best loop and the w.h.p. guarantee computation.
	in := instance.New(g, batteries)
	sspec := solver.Spec{Name: solver.NameGeneral}
	switch {
	case spec.Tolerance > 1:
		p.Algorithm = "Algorithm 3 (k-tolerant uniform)"
		sspec.Name = solver.NameFT
		in = in.WithK(spec.Tolerance)
	case uniform:
		p.Algorithm = "Algorithm 1 (uniform)"
		sspec.Name = solver.NameUniform
	default:
		p.Algorithm = "Algorithm 2 (general)"
	}
	// On each lemma's domain the combined bound equals it: Lemma 4.1 for
	// uniform batteries, 5.1 for arbitrary ones, 6.1 for k-tolerance.
	p.UpperBound = core.GeneralKTolerantUpperBound(g, batteries, spec.Tolerance)
	s, err := solver.Solve(in, sspec,
		solver.Options{Tries: retries, Src: src})
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	p.Schedule = s
	if p.Guaranteed, err = solver.Guaranteed(in, sspec); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}

	if spec.Squeeze {
		p.Schedule = sched.Squeeze(g, p.Schedule, batteries, spec.Tolerance)
		p.Algorithm += " + squeeze"
	}
	if err := p.Schedule.Validate(g, batteries, spec.Tolerance); err != nil {
		return nil, fmt.Errorf("plan: internal error, produced schedule invalid: %w", err)
	}
	return p, nil
}

func normalizeBatteries(b []int, n int) ([]int, bool, error) {
	switch len(b) {
	case 0:
		return nil, false, fmt.Errorf("plan: no batteries given")
	case 1:
		if b[0] < 0 {
			return nil, false, fmt.Errorf("plan: negative battery %d", b[0])
		}
		out := make([]int, n)
		for i := range out {
			out[i] = b[0]
		}
		return out, true, nil
	case n:
		uniform := true
		for _, v := range b {
			if v < 0 {
				return nil, false, fmt.Errorf("plan: negative battery %d", v)
			}
			if v != b[0] {
				uniform = false
			}
		}
		return append([]int(nil), b...), uniform, nil
	default:
		return nil, false, fmt.Errorf("plan: %d batteries for %d nodes", len(b), n)
	}
}

// WriteReport renders a human-readable plan summary.
func (p *Plan) WriteReport(w io.Writer) error {
	lifetime := p.Schedule.Lifetime()
	frac := 0.0
	if p.UpperBound > 0 {
		frac = float64(lifetime) / float64(p.UpperBound)
	}
	_, err := fmt.Fprintf(w,
		"deployment: %v\nalgorithm:  %s\ntolerance:  %d-dominating per slot\n"+
			"lifetime:   %d slots (%d phases)\nupper bound: %d slots (%.0f%% attained)\n"+
			"guaranteed: ≥ %d slots w.h.p. before retries\n",
		p.Graph, p.Algorithm, p.Tolerance,
		lifetime, len(p.Schedule.Phases), p.UpperBound, 100*frac, p.Guaranteed)
	return err
}
