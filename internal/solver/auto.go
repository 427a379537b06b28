// The auto portfolio solver: registry-level dispatch on the instance's
// verified structure. It is the second consumer of the typed instance
// model — callers (serve's `algorithm: "auto"`, ltsched/ltsim `-alg
// auto`) stop choosing algorithms per graph shape and let the
// classification decide:
//
//   - a certified Grid (or a Torus with both dimensions divisible by 5,
//     where the pattern closes seamlessly) at tolerance 1 routes to the
//     pattern-tiling "grid" solver;
//   - an instance small enough for the branch-and-bound optimum
//     (n <= exactNodeCap) routes to "exact";
//   - everything else routes to "greedy".
//
// The dispatch lives in Effective (solver.go) so the driver, refiner
// validation, and the serve layer all see one rule; the registry's auto row
// carries no code of its own.

package solver

import "repro/internal/instance"

// autoPick is the portfolio rule: the concrete registry name auto
// resolves to on this instance. Deterministic in the instance's Meta, so
// the same graph always dispatches the same way (which is what lets the
// serve layer cache auto requests under the requested name).
func autoPick(inst *instance.Instance) string {
	m := inst.Meta()
	// Grids always route to the tiling. Tori only when both dimensions are
	// divisible by 5: the diagonal pattern then closes seamlessly and the
	// rotation reaches the full 5b; on other tori the wrap seam leaks in
	// every translate and the repaired rotation can fall just short of the
	// greedy baseline, so the portfolio leaves those to greedy.
	if inst.Tolerance() == 1 && (m.Class == instance.Grid ||
		(m.Class == instance.Torus && m.Rows%5 == 0 && m.Cols%5 == 0)) {
		return NameGrid
	}
	if inst.N() <= exactNodeCap {
		return NameExact
	}
	return NameGreedy
}
