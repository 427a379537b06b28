package core

import (
	"repro/internal/domset"
	"repro/internal/graph"
)

// The WHP retry loop now lives solely in the internal/solver driver, and
// core sits below solver in the import graph, so these tests replay the
// loop locally: up to tries draws, each truncated at its first
// non-truncK-dominating phase, keeping the best and stopping early at
// target. solver's seed-pinned equivalence test asserts the driver matches
// this exact composition draw for draw.
func whpForTest(g *graph.Graph, target, truncK, tries int, generate func() *Schedule) *Schedule {
	sess := domset.NewSession(g)
	var best *Schedule
	for try := 0; try < tries; try++ {
		s := generate().TruncateInvalidWith(sess, truncK)
		if best == nil || s.Lifetime() > best.Lifetime() {
			best = s
		}
		if best.Lifetime() >= target {
			break
		}
	}
	return best
}

func uniformWHPForTest(g *graph.Graph, b int, opt Options, tries int) *Schedule {
	opt = opt.normalize()
	return whpForTest(g, GuaranteedPhases(g, opt)*b, 1, tries,
		func() *Schedule { return Uniform(g, b, opt) })
}

func generalWHPForTest(g *graph.Graph, b []int, opt Options, tries int) *Schedule {
	opt = opt.normalize()
	return whpForTest(g, GeneralGuaranteedSlots(g, b, opt), 1, tries,
		func() *Schedule { return General(g, b, opt) })
}

func faultTolerantWHPForTest(g *graph.Graph, b, k int, opt Options, tries int) *Schedule {
	opt = opt.normalize()
	return whpForTest(g, FaultTolerantGuarantee(g, b, k, opt), k, tries,
		func() *Schedule { return FaultTolerant(g, b, k, opt) })
}

func generalFaultTolerantWHPForTest(g *graph.Graph, b []int, k int, opt Options, tries int) *Schedule {
	opt = opt.normalize()
	return whpForTest(g, GeneralGuaranteedSlots(g, b, opt)/k, k, tries,
		func() *Schedule { return GeneralFaultTolerant(g, b, k, opt) })
}
