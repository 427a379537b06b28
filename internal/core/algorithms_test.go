package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func opts(seed uint64) Options {
	return Options{K: 3, Src: rng.New(seed)}
}

// closedFormBound is Lemma 6.1's b(δ+1)/k, Lemma 4.1's b(δ+1) at k = 1,
// and 0 on the empty graph.
func closedFormBound(g *graph.Graph, b, k int) int {
	if g.N() == 0 {
		return 0
	}
	return b * (g.MinDegree() + 1) / k
}

func TestUniformSchedulesAreFeasible(t *testing.T) {
	src := rng.New(1)
	graphs := []*graph.Graph{
		gen.GNP(150, 0.2, src),
		gen.Grid(10, 10),
		gen.Complete(20),
		gen.Path(30),
	}
	const b = 4
	for i, g := range graphs {
		s := Uniform(g, b, opts(uint64(i)))
		// The raw schedule always respects batteries (each node in exactly
		// one class) even if some class fails domination.
		usage := s.Usage(g.N())
		for v, u := range usage {
			if u > b {
				t.Errorf("graph %d: node %d used %d > %d", i, v, u, b)
			}
		}
		trunc := s.TruncateInvalid(g, 1)
		if err := trunc.Validate(g, uniformBatteries(g.N(), b), 1); err != nil {
			t.Errorf("graph %d: truncated schedule invalid: %v", i, err)
		}
	}
}

func TestUniformEveryNodeInExactlyOneClass(t *testing.T) {
	g := gen.GNP(100, 0.3, rng.New(2))
	const b = 2
	s := Uniform(g, b, opts(7))
	usage := s.Usage(g.N())
	for v, u := range usage {
		if u != b {
			t.Fatalf("node %d active %d slots, want exactly %d (one class × b)", v, u, b)
		}
	}
}

func TestUniformWHPReachesGuarantee(t *testing.T) {
	g := gen.GNP(200, 0.4, rng.New(3))
	const b = 3
	o := opts(11)
	s := uniformWHPForTest(g, b, o, 50)
	if err := s.Validate(g, uniformBatteries(g.N(), b), 1); err != nil {
		t.Fatal(err)
	}
	want := GuaranteedPhases(g, o) * b
	if s.Lifetime() < want {
		t.Fatalf("WHP lifetime %d below guarantee %d", s.Lifetime(), want)
	}
	// And never above the Lemma 4.1 optimum bound.
	if ub := b * (g.MinDegree() + 1); s.Lifetime() > ub {
		t.Fatalf("lifetime %d exceeds upper bound %d", s.Lifetime(), ub)
	}
}

func TestUniformZeroBattery(t *testing.T) {
	g := gen.Path(5)
	s := Uniform(g, 0, opts(1))
	if s.Lifetime() != 0 {
		t.Fatal("b=0 should yield empty schedule")
	}
}

func TestUniformNegativeBatteryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative battery did not panic")
		}
	}()
	Uniform(gen.Path(3), -1, opts(1))
}

func TestUniformApproximationRatioIsLogarithmic(t *testing.T) {
	// Theorem 4.3 sanity check: on a dense G(n,p) the achieved lifetime is
	// within c·ln n of the b(δ+1) upper bound.
	g := gen.GNP(300, 0.35, rng.New(4))
	const b = 2
	o := opts(13)
	s := uniformWHPForTest(g, b, o, 50)
	ub := b * (g.MinDegree() + 1)
	ratio := float64(ub) / float64(s.Lifetime())
	logn := math.Log(float64(g.N()))
	// The constant is ≈ K (=3) plus rounding loss from the ⌊δ/(K ln n)⌋
	// floor; 5·ln n is a comfortable logarithmic envelope.
	if ratio > 5*logn {
		t.Fatalf("ratio %.2f exceeds 5·ln n = %.2f", ratio, 5*logn)
	}
}

func TestGeneralSchedulesAreFeasible(t *testing.T) {
	src := rng.New(5)
	g := gen.GNP(120, 0.25, src)
	b := make([]int, g.N())
	for i := range b {
		b[i] = 1 + src.Intn(5)
	}
	s := General(g, b, opts(17))
	usage := s.Usage(g.N())
	for v, u := range usage {
		if u > b[v] {
			t.Fatalf("node %d used %d > battery %d", v, u, b[v])
		}
	}
	trunc := s.TruncateInvalid(g, 1)
	if err := trunc.Validate(g, b, 1); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralWHPReachesGuarantee(t *testing.T) {
	src := rng.New(6)
	g := gen.GNP(150, 0.4, src)
	b := make([]int, g.N())
	for i := range b {
		b[i] = 2 + src.Intn(4)
	}
	o := opts(19)
	s := generalWHPForTest(g, b, o, 50)
	if err := s.Validate(g, b, 1); err != nil {
		t.Fatal(err)
	}
	if want := GeneralGuaranteedSlots(g, b, o); s.Lifetime() < want {
		t.Fatalf("WHP lifetime %d below guarantee %d", s.Lifetime(), want)
	}
	if ub := GeneralUpperBound(g, b); s.Lifetime() > ub {
		t.Fatalf("lifetime %d exceeds upper bound %d", s.Lifetime(), ub)
	}
}

func TestGeneralHandlesZeroBatteryNodes(t *testing.T) {
	g := gen.Complete(6)
	b := []int{0, 3, 3, 3, 3, 3}
	s := General(g, b, opts(23))
	if u := s.Usage(g.N())[0]; u != 0 {
		t.Fatalf("zero-battery node active %d slots", u)
	}
	trunc := s.TruncateInvalid(g, 1)
	if err := trunc.Validate(g, b, 1); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralBatteryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched batteries did not panic")
		}
	}()
	General(gen.Path(3), []int{1}, opts(1))
}

func TestGeneralMatchesUniformUpperBoundOnUniformInput(t *testing.T) {
	// With uniform batteries, GeneralUpperBound = Σ_{N+[u]} b = b(δ+1) at a
	// minimum-degree node — consistent with Lemma 4.1 — and dividing by k
	// gives Lemma 6.1, so the combined bound is the one rule for all three
	// lemmas.
	graphs := []*graph.Graph{
		graph.New(0),
		graph.New(3),
		gen.Path(7),
		gen.Star(9),
		gen.Grid(6, 6),
		gen.Complete(5),
		gen.GNP(60, 0.1, rng.New(4)),
		gen.GNP(40, 0.5, rng.New(5)),
	}
	for i, g := range graphs {
		for b := 0; b <= 4; b++ {
			batteries := uniformBatteries(g.N(), b)
			if got, want := GeneralUpperBound(g, batteries), closedFormBound(g, b, 1); got != want {
				t.Fatalf("graph %d, b=%d: GeneralUpperBound = %d, b(δ+1) = %d", i, b, got, want)
			}
			for k := 1; k <= 3; k++ {
				if got, want := GeneralKTolerantUpperBound(g, batteries, k), closedFormBound(g, b, k); got != want {
					t.Fatalf("graph %d, b=%d, k=%d: GeneralKTolerantUpperBound = %d, b(δ+1)/k = %d",
						i, b, k, got, want)
				}
			}
		}
	}
}

func TestFaultTolerantSchedulesAreKDominating(t *testing.T) {
	g := gen.GNP(150, 0.3, rng.New(7))
	const b = 4
	for k := 1; k <= 3; k++ {
		o := opts(uint64(29 + k))
		s := faultTolerantWHPForTest(g, b, k, o, 50)
		if err := s.Validate(g, uniformBatteries(g.N(), b), k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if ub := b * (g.MinDegree() + 1) / k; s.Lifetime() > ub {
			t.Fatalf("k=%d: lifetime %d exceeds bound %d", k, s.Lifetime(), ub)
		}
		// The first b/2 slots come from the everyone-active phase.
		if s.Lifetime() < b/2 {
			t.Fatalf("k=%d: lifetime %d below the b/2 floor", k, s.Lifetime())
		}
	}
}

func TestFaultTolerantLargeKRegime(t *testing.T) {
	// δ/ln n < k: the merged-class part vanishes and the schedule is the
	// everyone-active phase alone — still a valid k-dominating schedule of
	// length ⌊b/2⌋ provided δ+1 > k.
	g := gen.Grid(8, 8) // δ = 2
	const b, k = 4, 3
	s := FaultTolerant(g, b, k, opts(31)).TruncateInvalid(g, k)
	if s.Lifetime() < b/2 {
		t.Fatalf("lifetime %d below b/2 = %d", s.Lifetime(), b/2)
	}
	if err := s.Validate(g, uniformBatteries(g.N(), b), k); err != nil {
		t.Fatal(err)
	}
}

func TestFaultTolerantOddBattery(t *testing.T) {
	g := gen.Complete(10)
	const b, k = 5, 2
	s := FaultTolerant(g, b, k, opts(37))
	if err := s.TruncateInvalid(g, k).Validate(g, uniformBatteries(g.N(), b), k); err != nil {
		t.Fatal(err)
	}
}

func TestFaultTolerantB1HasNoFirstPhase(t *testing.T) {
	// b = 1: ⌊b/2⌋ = 0, so the schedule is only merged classes of duration 1.
	g := gen.Complete(30)
	s := FaultTolerant(g, 1, 2, opts(41))
	for _, p := range s.Phases {
		if p.Duration != 1 {
			t.Fatalf("phase duration %d, want 1", p.Duration)
		}
	}
}

func TestFaultTolerantPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	FaultTolerant(gen.Path(3), 2, 0, opts(1))
}

func TestBoundsKnownValues(t *testing.T) {
	g := gen.Complete(5) // δ = 4
	if got := closedFormBound(g, 3, 1); got != 15 {
		t.Errorf("b(δ+1) on K5 at b = 3 = %d, want 15", got)
	}
	if got := closedFormBound(g, 3, 2); got != 7 {
		t.Errorf("b(δ+1)/k on K5 at b = 3, k = 2 = %d, want 7", got)
	}
	if got := GeneralUpperBound(g, []int{1, 2, 3, 4, 5}); got != 15 {
		t.Errorf("GeneralUpperBound = %d, want 15", got)
	}
	star := gen.Star(5)
	if got := GeneralUpperBound(star, []int{10, 1, 1, 1, 1}); got != 11 {
		t.Errorf("GeneralUpperBound(star) = %d, want 11 (leaf + center)", got)
	}
}

func TestBoundsEmptyGraph(t *testing.T) {
	g := graph.New(0)
	if GeneralUpperBound(g, nil) != 0 || GeneralKTolerantUpperBound(g, nil, 2) != 0 {
		t.Fatal("empty graph bounds should be 0")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := gen.GNP(80, 0.2, rng.New(9))
	a := Uniform(g, 3, opts(99))
	b := Uniform(g, 3, opts(99))
	if a.String() != b.String() {
		t.Fatal("Uniform not deterministic for a fixed seed")
	}
}

func TestOptionsDefaults(t *testing.T) {
	// Nil Src and zero K must not panic and must behave like K=3.
	g := gen.Complete(10)
	s := Uniform(g, 2, Options{})
	if s.Lifetime() == 0 {
		t.Fatal("default options produced empty schedule on K10")
	}
}
