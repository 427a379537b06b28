package exact

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// generalWHPFixture replays the WHP retry loop (now owned by the
// internal/solver driver, unreachable from exact's tests without a cycle)
// over the core primitives.
func generalWHPFixture(g *graph.Graph, b []int, opt core.Options, tries int) *core.Schedule {
	sess := domset.NewSession(g)
	target := core.GeneralGuaranteedSlots(g, b, opt)
	var best *core.Schedule
	for try := 0; try < tries; try++ {
		s := core.General(g, b, opt).TruncateInvalidWith(sess, 1)
		if best == nil || s.Lifetime() > best.Lifetime() {
			best = s
		}
		if best.Lifetime() >= target {
			break
		}
	}
	return best
}

// TestOptimalityChainProperty verifies the fundamental inequality chain on
// random instances:
//
//	algorithm ≤ integral OPT ≤ fractional LP OPT ≤ Lemma 5.1 bound
func TestOptimalityChainProperty(t *testing.T) {
	prop := func(seed uint64, bBits uint8) bool {
		src := rng.New(seed)
		g := gen.GNP(9, 0.4, src)
		b := make([]int, g.N())
		for i := range b {
			b[i] = 1 + int(bBits%3) + src.Intn(2)
		}
		integral, _, _ := Integral(g, b, 1)
		fractional, _, _, err := Fractional(g, b, 1)
		if err != nil {
			return false
		}
		bound := core.GeneralUpperBound(g, b)
		alg := generalWHPFixture(g, b, core.Options{K: 3, Src: src.Split()}, 10)
		return float64(alg.Lifetime()) <= float64(integral)+1e-9 &&
			float64(integral) <= fractional+1e-6 &&
			fractional <= float64(bound)+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAlgorithmsNeverBeatExactOptimum: on small instances the truncated
// Algorithm 2 lifetime is at most the exact integral optimum, since it is a
// feasible schedule.
func TestAlgorithmsNeverBeatExactOptimum(t *testing.T) {
	src := rng.New(8)
	for trial := 0; trial < 5; trial++ {
		g := gen.GNP(10, 0.5, src)
		b := make([]int, g.N())
		for i := range b {
			b[i] = 1 + src.Intn(3)
		}
		opt, _, _ := Integral(g, b, 1)
		s := generalWHPFixture(g, b, core.Options{K: 3, Src: rng.New(uint64(50 + trial))}, 20)
		if s.Lifetime() > opt {
			t.Fatalf("trial %d: algorithm %d beats exact optimum %d", trial, s.Lifetime(), opt)
		}
	}
}

// TestColumnGenerationAgreesWithEnumerationProperty: CG and full enumeration
// solve the same LP.
func TestColumnGenerationAgreesWithEnumerationProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		g := gen.GNP(8, 0.45, src)
		b := make([]int, g.N())
		for i := range b {
			b[i] = 1 + src.Intn(3)
		}
		full, _, _, err := Fractional(g, b, 1)
		if err != nil {
			return false
		}
		cg, _, _, _, err := FractionalCG(g, b, 1, 300)
		if err != nil {
			return false
		}
		diff := full - cg
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-5*(1+full)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestIntegralScheduleFeasibilityProperty: the schedule the exact solver
// returns always validates.
func TestIntegralScheduleFeasibilityProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		g := gen.GNP(8, 0.4, src)
		b := make([]int, g.N())
		for i := range b {
			b[i] = 1 + src.Intn(3)
		}
		val, sets, durs := Integral(g, b, 1)
		s := &core.Schedule{}
		for i := range sets {
			s.Phases = append(s.Phases, core.Phase{Set: sets[i], Duration: durs[i]})
		}
		return s.Lifetime() == val && s.Validate(g, b, 1) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
