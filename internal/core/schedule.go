// Package core implements the paper's contribution: randomized, distributed
// approximation algorithms for the Maximum Cluster-Lifetime problem.
//
// A Schedule is a sequence of (dominating set, duration) phases. The three
// algorithms of the paper construct schedules whose lifetime is within
// O(log n) (uniform and k-tolerant cases) resp. O(log(b_max·n)) (general
// case) of the optimum, with high probability:
//
//   - Uniform (Algorithm 1): all batteries equal; one random color per node.
//   - General (Algorithm 2): arbitrary batteries; b_v random colors per node,
//     one time slot per color.
//   - FaultTolerant (Algorithm 3): uniform batteries, every node must see at
//     least k dominators at all times.
//
// The color-class guarantee is probabilistic, so raw schedules may contain
// non-dominating phases; TruncateInvalid extracts the valid prefix (what a
// deployment would actually run), and solver.Solve retries until the
// guaranteed prefix materializes.
package core

import (
	"fmt"
	"sort"

	"repro/internal/domset"
	"repro/internal/graph"
)

// Phase is one schedule entry: Set is active for Duration consecutive slots.
type Phase struct {
	Set      []int
	Duration int
}

// Schedule is an ordered sequence of phases. The zero value is the empty
// schedule with lifetime 0.
type Schedule struct {
	Phases []Phase
}

// Lifetime returns the total duration Σ t_i of the schedule.
func (s *Schedule) Lifetime() int {
	total := 0
	for _, p := range s.Phases {
		total += p.Duration
	}
	return total
}

// Usage returns, for each node, the total number of slots it spends in
// active sets.
func (s *Schedule) Usage(n int) []int {
	usage := make([]int, n)
	for _, p := range s.Phases {
		for _, v := range p.Set {
			usage[v] += p.Duration
		}
	}
	return usage
}

// UsagePrefix returns, for each node, the number of slots it spends in
// active sets during the first t slots — the energy a partially executed
// schedule has already drained when a reconfiguration cuts over at time t.
// t at or past Lifetime() is equivalent to Usage.
func (s *Schedule) UsagePrefix(n, t int) []int {
	usage := make([]int, n)
	for _, p := range s.Phases {
		if t <= 0 {
			break
		}
		d := p.Duration
		if d > t {
			d = t
		}
		for _, v := range p.Set {
			usage[v] += d
		}
		t -= p.Duration
	}
	return usage
}

// ActiveAt returns the active set of the slot at the given time in
// [0, Lifetime()), or nil if t is out of range.
func (s *Schedule) ActiveAt(t int) []int {
	if t < 0 {
		return nil
	}
	for _, p := range s.Phases {
		if t < p.Duration {
			return p.Set
		}
		t -= p.Duration
	}
	return nil
}

// Validate checks that s is a feasible solution of the Maximum k-tolerant
// Cluster-Lifetime problem on g with the given battery budgets: every phase
// with positive duration is a k-dominating set, phase durations are
// non-negative, node usage never exceeds the battery, and all node IDs are
// in range. k = 1 is the plain problem.
func (s *Schedule) Validate(g *graph.Graph, batteries []int, k int) error {
	return s.ValidateWith(domset.NewSession(g), batteries, k)
}

// ValidateWith is Validate against a caller-held session over the graph,
// reusing its state across many validations of schedules on the same graph
// (the solver driver, the stitcher). It resets the session.
func (s *Schedule) ValidateWith(sess *domset.Session, batteries []int, k int) error {
	g := sess.Graph()
	if len(batteries) != g.N() {
		return fmt.Errorf("core: %d batteries for %d nodes", len(batteries), g.N())
	}
	if k < 1 {
		return fmt.Errorf("core: tolerance k = %d must be >= 1", k)
	}
	usage := make([]int, g.N())
	for i, p := range s.Phases {
		if p.Duration < 0 {
			return fmt.Errorf("core: phase %d has negative duration %d", i, p.Duration)
		}
		if p.Duration == 0 {
			continue
		}
		for _, v := range p.Set {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("core: phase %d contains out-of-range node %d", i, v)
			}
			usage[v] += p.Duration
		}
		if !sess.Reset(p.Set, k, nil).IsKDominating() {
			return fmt.Errorf("core: phase %d (duration %d) is not %d-dominating", i, p.Duration, k)
		}
	}
	for v, u := range usage {
		if u > batteries[v] {
			return fmt.Errorf("core: node %d active %d slots but battery is %d", v, u, batteries[v])
		}
	}
	return nil
}

// TruncateInvalid returns the longest prefix of s whose positive-duration
// phases are all k-dominating sets of g. This is the deployment-relevant
// repair for the probabilistic color-class guarantee: the schedule runs
// until the first broken phase and stops. k must be >= 1.
func (s *Schedule) TruncateInvalid(g *graph.Graph, k int) *Schedule {
	return s.TruncateInvalidWith(domset.NewSession(g), k)
}

// TruncateInvalidWith is TruncateInvalid against a caller-held session over
// the graph. It resets the session.
func (s *Schedule) TruncateInvalidWith(sess *domset.Session, k int) *Schedule {
	out := &Schedule{}
	for _, p := range s.Phases {
		if p.Duration > 0 && !sess.Reset(p.Set, k, nil).IsKDominating() {
			break
		}
		out.Phases = append(out.Phases, p)
	}
	return out
}

// DropInvalid returns a copy of s with every non-k-dominating phase removed
// (rather than truncating at the first). This is the ablation counterpart of
// TruncateInvalid: it assumes a coordinator can skip broken classes. k must
// be >= 1.
func (s *Schedule) DropInvalid(g *graph.Graph, k int) *Schedule {
	return s.DropInvalidWith(domset.NewSession(g), k)
}

// DropInvalidWith is DropInvalid against a caller-held session over the
// graph. It resets the session.
func (s *Schedule) DropInvalidWith(sess *domset.Session, k int) *Schedule {
	out := &Schedule{}
	for _, p := range s.Phases {
		if p.Duration > 0 && !sess.Reset(p.Set, k, nil).IsKDominating() {
			continue
		}
		out.Phases = append(out.Phases, p)
	}
	return out
}

// Compact merges consecutive phases with identical sets and removes
// zero-duration phases, preserving the schedule semantics.
func (s *Schedule) Compact() *Schedule {
	out := &Schedule{}
	for _, p := range s.Phases {
		if p.Duration == 0 {
			continue
		}
		if n := len(out.Phases); n > 0 && equalSets(out.Phases[n-1].Set, p.Set) {
			out.Phases[n-1].Duration += p.Duration
			continue
		}
		cp := Phase{Set: append([]int(nil), p.Set...), Duration: p.Duration}
		out.Phases = append(out.Phases, cp)
	}
	return out
}

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FromPartition builds the schedule that activates each set of the partition
// in order for the given uniform duration, skipping empty sets. Sets are
// defensively copied and sorted.
func FromPartition(partition [][]int, duration int) *Schedule {
	s := &Schedule{}
	for _, set := range partition {
		if len(set) == 0 {
			continue
		}
		cp := append([]int(nil), set...)
		sort.Ints(cp)
		s.Phases = append(s.Phases, Phase{Set: cp, Duration: duration})
	}
	return s
}
