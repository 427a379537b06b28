package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func uniformB(n, b int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// The WHP retry loop lives in the internal/solver driver, which sched (a
// solver dependency) cannot import from its tests; these fixtures replay it
// locally over the core primitives.
func whpFixture(g *graph.Graph, target, truncK, tries int, generate func() *core.Schedule) *core.Schedule {
	sess := domset.NewSession(g)
	var best *core.Schedule
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

func uniformWHPFixture(g *graph.Graph, b int, opt core.Options, tries int) *core.Schedule {
	return whpFixture(g, core.GuaranteedPhases(g, opt)*b, 1, tries,
		func() *core.Schedule { return core.Uniform(g, b, opt) })
}

func faultTolerantWHPFixture(g *graph.Graph, b, k int, opt core.Options, tries int) *core.Schedule {
	return whpFixture(g, core.FaultTolerantGuarantee(g, b, k, opt), k, tries,
		func() *core.Schedule { return core.FaultTolerant(g, b, k, opt) })
}

func TestMinimalizePreservesLifetimeAndValidity(t *testing.T) {
	g := gen.GNP(100, 0.25, rng.New(1))
	const b = 3
	s := uniformWHPFixture(g, b, core.Options{K: 3, Src: rng.New(2)}, 20)
	m := Minimalize(g, s, 1)
	if m.Lifetime() != s.Lifetime() {
		t.Fatalf("minimalize changed lifetime: %d vs %d", m.Lifetime(), s.Lifetime())
	}
	if err := m.Validate(g, uniformB(g.N(), b), 1); err != nil {
		t.Fatal(err)
	}
	// Usage can only go down.
	before, after := s.Usage(g.N()), m.Usage(g.N())
	for v := range before {
		if after[v] > before[v] {
			t.Fatalf("node %d usage grew: %d -> %d", v, before[v], after[v])
		}
	}
	// And should go down somewhere on a dense graph (classes are fat).
	saved := 0
	for v := range before {
		saved += before[v] - after[v]
	}
	if saved == 0 {
		t.Error("minimalize freed no budget on a dense graph — suspicious")
	}
}

func TestMinimalizeKeepsPhasesKDominating(t *testing.T) {
	g := gen.Complete(10)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0, 1, 2, 3, 4}, Duration: 1}}}
	m := Minimalize(g, s, 2)
	if err := m.Validate(g, uniformB(10, 5), 2); err != nil {
		t.Fatal(err)
	}
	if len(m.Phases[0].Set) != 2 {
		t.Fatalf("minimal 2-dominating subset of K10 phase = %v, want size 2", m.Phases[0].Set)
	}
}

func TestMinimalizeLeavesNonDominatingPhasesAlone(t *testing.T) {
	g := gen.Path(5)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{0}, Duration: 1}}}
	m := Minimalize(g, s, 1)
	if len(m.Phases[0].Set) != 1 || m.Phases[0].Set[0] != 0 {
		t.Fatalf("non-dominating phase altered: %v", m.Phases[0].Set)
	}
}

func TestExtendFromEmptySchedule(t *testing.T) {
	g := gen.Path(3)
	s := Extend(g, &core.Schedule{}, []int{2, 2, 2}, 1)
	// Optimal is 4 ({1}×2 then {0,2}×2); greedy extension reaches it here.
	if s.Lifetime() != 4 {
		t.Fatalf("extended lifetime = %d, want 4", s.Lifetime())
	}
	if err := s.Validate(g, []int{2, 2, 2}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestExtendNeverShortens(t *testing.T) {
	g := gen.GNP(60, 0.3, rng.New(3))
	const b = 3
	s := uniformWHPFixture(g, b, core.Options{K: 3, Src: rng.New(4)}, 20)
	e := Extend(g, s, uniformB(g.N(), b), 1)
	if e.Lifetime() < s.Lifetime() {
		t.Fatalf("extend shortened: %d -> %d", s.Lifetime(), e.Lifetime())
	}
	if err := e.Validate(g, uniformB(g.N(), b), 1); err != nil {
		t.Fatal(err)
	}
}

func TestExtendPanicsOnOverdrawnInput(t *testing.T) {
	g := gen.Path(3)
	s := &core.Schedule{Phases: []core.Phase{{Set: []int{1}, Duration: 5}}}
	defer func() {
		if recover() == nil {
			t.Fatal("overdrawn schedule did not panic")
		}
	}()
	Extend(g, s, []int{1, 1, 1}, 1)
}

func TestSqueezeBeatsRawSchedule(t *testing.T) {
	// On a dense graph the randomized schedule leaves most budget unused;
	// Squeeze must recover a significant amount.
	g := gen.GNP(150, 0.3, rng.New(5))
	const b = 4
	raw := uniformWHPFixture(g, b, core.Options{K: 3, Src: rng.New(6)}, 20)
	sq := Squeeze(g, raw, uniformB(g.N(), b), 1)
	if err := sq.Validate(g, uniformB(g.N(), b), 1); err != nil {
		t.Fatal(err)
	}
	if sq.Lifetime() < 2*raw.Lifetime() {
		t.Fatalf("squeeze gained too little: %d -> %d", raw.Lifetime(), sq.Lifetime())
	}
	if ub := b * (g.MinDegree() + 1); sq.Lifetime() > ub {
		t.Fatalf("squeezed lifetime %d beats the Lemma 4.1 bound %d", sq.Lifetime(), ub)
	}
}

func TestSqueezeKTolerant(t *testing.T) {
	g := gen.GNP(120, 0.4, rng.New(7))
	const b, k = 4, 2
	raw := faultTolerantWHPFixture(g, b, k, core.Options{K: 3, Src: rng.New(8)}, 20)
	sq := Squeeze(g, raw, uniformB(g.N(), b), k)
	if err := sq.Validate(g, uniformB(g.N(), b), k); err != nil {
		t.Fatal(err)
	}
	if sq.Lifetime() < raw.Lifetime() {
		t.Fatalf("squeeze shortened k-tolerant schedule: %d -> %d", raw.Lifetime(), sq.Lifetime())
	}
}

func TestSqueezeBadArgsPanics(t *testing.T) {
	g := gen.Path(3)
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	Squeeze(g, &core.Schedule{}, []int{1, 1, 1}, 0)
}

func TestReplanZeroAliveNodes(t *testing.T) {
	// Degradation edge: a fully dead network must yield an empty schedule —
	// no panic, no spin — since nobody can serve and nobody needs coverage.
	g := gen.GNP(20, 0.3, rng.New(6))
	residual := uniformB(20, 5)
	alive := make([]bool, 20)
	s := Replan(g, residual, 1, alive)
	if s.Lifetime() != 0 || len(s.Phases) != 0 {
		t.Fatalf("all-dead Replan produced %v", s)
	}
	// Same with tolerance above 1 and zero residuals.
	if s := Replan(g, make([]int, 20), 2, nil); s.Lifetime() != 0 {
		t.Fatalf("zero-residual Replan produced %v", s)
	}
}

// scheduleSHA is the SHA-256 of s's interchange JSON, the form the golden
// pins below compare.
func scheduleSHA(t *testing.T, s *core.Schedule) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestReplanGolden pins Replan's schedules byte for byte on two fixed
// instances, so a change to the greedy's internals that moves a single pick
// or tie-break shows here. The hashes were computed on the naive greedy
// loop (full neighbourhood recount per candidate per pick).
func TestReplanGolden(t *testing.T) {
	src := rng.New(2026)
	udg, _ := gen.RandomUDG(300, 1, 0.11, src.Split())
	udgRes := make([]int, udg.N())
	for v := range udgRes {
		udgRes[v] = 1 + src.Intn(8)
	}
	gnp := gen.GNP(200, 0.08, src.Split())
	gnpRes := make([]int, gnp.N())
	alive := make([]bool, gnp.N())
	for v := range gnpRes {
		gnpRes[v] = 1 + src.Intn(8)
		alive[v] = src.Intn(10) != 0
	}
	cases := []struct {
		name string
		s    *core.Schedule
		want string
	}{
		{"udg/k=1", Replan(udg, udgRes, 1, nil), "101510b8bbef134d4e6e58714e67c22bc31a8c71db49f6a9243fba4e3a00d123"},
		{"gnp/alive/k=2", Replan(gnp, gnpRes, 2, alive), "f2f52d033a3b86cad968f4d5ca8e47b322efc85d2233c8a955836f8574368cb9"},
	}
	for _, c := range cases {
		if c.s.Lifetime() == 0 {
			t.Fatalf("%s: empty schedule pins nothing", c.name)
		}
		if got := scheduleSHA(t, c.s); got != c.want {
			t.Errorf("%s: schedule SHA-256 = %s, want %s (lifetime %d, %d phases)",
				c.name, got, c.want, c.s.Lifetime(), len(c.s.Phases))
		}
	}
}

// TestGreedyPhaseConcurrent calls GreedyPhase from several goroutines at
// once on graphs of several sizes, so a pooled allowed mask comes back at
// another n than it was last used at, with and without an alive mask and
// on residuals that leave some calls infeasible. Every phase, duration and
// charged residual must equal the ones a sequential call computed before
// the goroutines start.
func TestGreedyPhaseConcurrent(t *testing.T) {
	type call struct {
		g               *graph.Graph
		k               int
		alive           []bool
		residual, after []int // before and after the sequential call
		set             []int
		dur             int
	}
	src := rng.New(31)
	var calls []call
	for _, n := range []int{8, 90, 300} {
		g := gen.GNP(n, 4/float64(n), src.Split())
		residual := make([]int, n)
		alive := make([]bool, n)
		for v := range residual {
			residual[v] = src.Intn(4) // a zero residual disallows the node
			alive[v] = src.Intn(10) != 0
		}
		for _, k := range []int{1, 2} {
			for _, a := range [][]bool{nil, alive} {
				calls = append(calls, call{g: g, k: k, alive: a, residual: residual})
			}
		}
	}
	feasible := 0
	for i := range calls {
		c := &calls[i]
		c.after = append([]int(nil), c.residual...)
		c.set, c.dur = GreedyPhase(c.g, c.after, c.k, c.alive)
		if c.set != nil {
			feasible++
		}
	}
	if feasible == 0 || feasible == len(calls) {
		t.Fatalf("%d of %d calls feasible; the fixture must cover both outcomes", feasible, len(calls))
	}

	const workers, rounds = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range calls {
					// Each worker walks the calls from its own offset, so
					// different sizes run side by side.
					i := (j + w*len(calls)/workers + r) % len(calls)
					c := calls[i]
					res := append([]int(nil), c.residual...)
					set, dur := GreedyPhase(c.g, res, c.k, c.alive)
					if !slices.Equal(set, c.set) || dur != c.dur || !slices.Equal(res, c.after) {
						t.Errorf("worker %d call %d (n=%d k=%d): GreedyPhase = %v×%d, sequentially %v×%d",
							w, i, c.g.N(), c.k, set, dur, c.set, c.dur)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestGreedyPhaseMaskPoolCarriesNoState puts an all-true mask, longer than
// n, into maskPool before each call, on residuals where a zero disallows a
// node. Every phase, duration and charged residual must equal a fresh
// call's, made with a new mask in the pool. Each call first takes out what
// the previous call put back, so without -race the next Get on this
// goroutine returns the mask just put; the race detector drops pooled items
// at random, so there a call may miss its garbage.
func TestGreedyPhaseMaskPoolCarriesNoState(t *testing.T) {
	swapIn := func(mask []bool) {
		maskPool.Get()
		maskPool.Put(&mask)
	}
	src := rng.New(41)
	feasible := 0
	for _, n := range []int{8, 60, 200} {
		g := gen.GNP(n, 5/float64(n), src.Split())
		residual := make([]int, n)
		alive := make([]bool, n)
		for v := range residual {
			residual[v] = src.Intn(4)
			alive[v] = src.Intn(10) != 0
		}
		for _, k := range []int{1, 2} {
			for _, a := range [][]bool{nil, alive} {
				swapIn(nil)
				want := slices.Clone(residual)
				wantSet, wantDur := GreedyPhase(g, want, k, a)
				if wantSet != nil {
					feasible++
				}
				garbage := make([]bool, n+13)
				for i := range garbage {
					garbage[i] = true
				}
				swapIn(garbage)
				got := slices.Clone(residual)
				set, dur := GreedyPhase(g, got, k, a)
				if !slices.Equal(set, wantSet) || dur != wantDur || !slices.Equal(got, want) {
					t.Errorf("n=%d k=%d alive %v: after garbage GreedyPhase = %v×%d, fresh %v×%d",
						n, k, a != nil, set, dur, wantSet, wantDur)
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible call; the fixture must reach GreedyK with the mask")
	}
}
