package solver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
)

// hetInstance is the refiner workbench: a moderately dense GNP graph with
// heterogeneous batteries in [1, 20]. With uniform batteries the greedy
// baseline already sits on the min-degree bottleneck bound and local search
// has nothing to rebalance; battery skew is where move-based repair pays.
func hetInstance(t testing.TB, n int, seed uint64) *instance.Instance {
	t.Helper()
	src := rng.New(seed)
	p := 6 * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	g := gen.GNP(n, p, src.Split())
	bsrc := src.Split()
	budgets := make([]int, n)
	for v := range budgets {
		budgets[v] = 1 + bsrc.Intn(20)
	}
	return instance.New(g, budgets)
}

// TestRefineDeterministic pins the seed contract of the refiners: the same
// (seed, budget) pair must reproduce a byte-identical schedule, and the
// result must validate under the driver's feasibility gate (Solve already
// gates internally; DeepEqual catches any nondeterminism in move order,
// policy state, or snapshotting).
func TestRefineDeterministic(t *testing.T) {
	in := hetInstance(t, 96, 11)
	for _, name := range []string{NameTabu, NameAnneal} {
		spec := Spec{Name: name, Base: NameGreedy}
		solveOnce := func() *core.Schedule {
			s, err := Solve(in, spec,
				Options{Tries: 3, Budget: 5000, Src: rng.New(42)})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return s
		}
		a, b := solveOnce(), solveOnce()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed+budget produced different schedules:\n%v\nvs\n%v", name, a, b)
		}
	}
}

// TestRefineNeverWorseThanBase is the anytime floor: whatever the budget,
// the refined schedule's lifetime is >= the greedy base it starts from
// (the engine returns its best snapshot, and the start is the first one).
func TestRefineNeverWorseThanBase(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		in := hetInstance(t, 64, seed)
		base, err := Solve(in, Spec{Name: NameGreedy}, Options{Src: rng.New(seed)})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{NameTabu, NameAnneal} {
			for _, budget := range []int{1, 100, 4000} {
				s, err := Solve(in, Spec{Name: name, Base: NameGreedy},
					Options{Tries: 1, Budget: budget, Src: rng.New(seed)})
				if err != nil {
					t.Fatalf("%s seed=%d budget=%d: %v", name, seed, budget, err)
				}
				if s.Lifetime() < base.Lifetime() {
					t.Errorf("%s seed=%d budget=%d: refined lifetime %d < base %d",
						name, seed, budget, s.Lifetime(), base.Lifetime())
				}
			}
		}
	}
}

// TestRefineImprovesFixture pins that the refiners actually buy lifetime on
// an instance with known slack: the seed-7 heterogeneous GNP instance, where
// both policies beat the greedy baseline at a 50k budget. A regression that
// silently turns the move engine into a no-op fails here.
func TestRefineImprovesFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-move refinement is slow")
	}
	in := hetInstance(t, 128, 7)
	base, err := Solve(in, Spec{Name: NameGreedy}, Options{Src: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{NameTabu, NameAnneal} {
		s, err := Solve(in, Spec{Name: name, Base: NameGreedy},
			Options{Tries: 1, Budget: 50000, Src: rng.New(1)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Lifetime() <= base.Lifetime() {
			t.Errorf("%s: refined lifetime %d did not improve on greedy %d",
				name, s.Lifetime(), base.Lifetime())
		}
	}
}

// TestRefineMovesPreserveDomination is the white-box property test of the
// move engine and of the per-phase sessions it keeps across passes. After
// every accepted move the live session must still be k-dominating, and its
// dominator counts must agree node by node with a from-scratch count over
// the same member set — the probes and the flips applied after them leave
// no residue. After every pass, each phase's session must hold exactly the
// phase's set of record, with the counts a fresh Reset of that set gives,
// since the next pass reuses it instead of reloading. The observe hook fires
// inside refinePhase after each accepted move.
func TestRefineMovesPreserveDomination(t *testing.T) {
	for _, k := range []int{1, 2} {
		in := hetInstance(t, 48, uint64(13+k)).WithK(k)
		g, budgets := in.Graph, in.Budgets
		base, err := Solve(in, Spec{Name: NameGreedy}, Options{Src: rng.New(2)})
		if err != nil {
			t.Fatal(err)
		}
		fresh := domset.NewSession(g) // independent of the refiner's sessions
		moves := 0
		observe := func(sess *domset.Session) {
			moves++
			if !sess.IsKDominating() {
				t.Fatalf("k=%d: accepted move %d left a non-dominating set", k, moves)
			}
			members := sess.AppendMembers(nil)
			if diff := countDiff(sess, fresh.Reset(members, k, nil)); diff != "" {
				t.Fatalf("k=%d: after accepted move %d over %v, %s", k, moves, members, diff)
			}
		}
		rc := &refinement{Budget: 3000, Src: rng.New(3)}
		st := newRefineState(in, base, rc, newTabuPolicy(g.N(), 3000), observe)
		passes, checked := 0, 0
		for !st.exhausted() {
			st.pass()
			passes++
			if len(st.sessions) != len(st.sets) {
				t.Fatalf("k=%d pass %d: %d sessions for %d phases", k, passes, len(st.sessions), len(st.sets))
			}
			for p, sess := range st.sessions {
				if sess == nil {
					continue
				}
				checked++
				if got := sess.AppendMembers(nil); !reflect.DeepEqual(got, st.sets[p]) {
					t.Fatalf("k=%d pass %d: phase %d's session holds %v, its set of record is %v",
						k, passes, p, got, st.sets[p])
				}
				if diff := countDiff(sess, fresh.Reset(st.sets[p], k, nil)); diff != "" {
					t.Fatalf("k=%d pass %d: in phase %d's session %s", k, passes, p, diff)
				}
			}
		}
		if moves == 0 {
			t.Fatalf("k=%d: the property test observed no accepted moves; fixture too easy", k)
		}
		// The fixture must reuse sessions, and visit a phase the extension
		// appended, or the per-pass check has nothing to catch.
		if passes < 2 || len(st.sets) <= len(base.Phases) || st.sessions[len(base.Phases)] == nil {
			t.Fatalf("k=%d: %d passes extending %d phases to %d; fixture too small",
				k, passes, len(base.Phases), len(st.sets))
		}
		if err := st.snapshot().Validate(g, budgets, k); err != nil {
			t.Fatalf("k=%d: refined schedule invalid: %v", k, err)
		}
		t.Logf("k=%d: %d accepted moves, %d passes, %d session checks", k, moves, passes, checked)
	}
}

// TestMinimalPhasesHaveNoRedundantMember is the property test of the
// minimal bit that lets a removal sweep skip its probes. After every pass,
// each phase whose bit is set must have no member that DropKeeps would let
// go, and its session must hold the phase's set of record. The fixture must
// set bits, and accept swaps on phases that had one, so a bit left set by an
// accepted swap has a chance to show here.
func TestMinimalPhasesHaveNoRedundantMember(t *testing.T) {
	for _, name := range []string{NameTabu, NameAnneal} {
		for _, k := range []int{1, 2} {
			in := hetInstance(t, 48, uint64(13+k)).WithK(k)
			sv, err := Resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			base, err := Solve(in, Spec{Name: NameGreedy}, Options{Src: rng.New(2)})
			if err != nil {
				t.Fatal(err)
			}
			const budget = 3000
			rc := &refinement{Budget: budget, Src: rng.New(3)}
			st := newRefineState(in, base, rc, sv.policy(in.N(), budget), nil)
			passes, minimal, cleared := 0, 0, 0
			var was []bool
			for !st.exhausted() {
				was = append(was[:0], st.minimal...)
				st.pass()
				passes++
				for p, set := range st.sets {
					if !st.minimal[p] {
						if p < len(was) && was[p] {
							cleared++
						}
						continue
					}
					minimal++
					sess := st.sessions[p]
					if sess == nil {
						t.Fatalf("%s k=%d pass %d: phase %d is marked minimal and has no session", name, k, passes, p)
					}
					if got := sess.AppendMembers(nil); !reflect.DeepEqual(got, set) {
						t.Fatalf("%s k=%d pass %d: minimal phase %d's session holds %v, its set of record is %v",
							name, k, passes, p, got, set)
					}
					for _, v := range set {
						if sess.DropKeeps(v) {
							t.Fatalf("%s k=%d pass %d: phase %d is marked minimal, but member %d of %v is redundant",
								name, k, passes, p, v, set)
						}
					}
				}
			}
			if passes < 2 || minimal == 0 || cleared == 0 {
				t.Fatalf("%s k=%d: %d passes, %d minimal phase checks, %d bits cleared; fixture too small",
					name, k, passes, minimal, cleared)
			}
			t.Logf("%s k=%d: %d passes, %d minimal phase checks, %d bits cleared", name, k, passes, minimal, cleared)
		}
	}
}

// countDiff describes the first way session a disagrees with a fresh count
// b — a node's dominator count, the coverage or the verdict — or returns ""
// when they agree.
func countDiff(a, b *domset.Session) string {
	for v := 0; v < a.Graph().N(); v++ {
		if a.Dominators(v) != b.Dominators(v) {
			return fmt.Sprintf("node %d has %d dominators, a fresh count %d", v, a.Dominators(v), b.Dominators(v))
		}
	}
	if a.CoveredCount() != b.CoveredCount() || a.IsKDominating() != b.IsKDominating() {
		return fmt.Sprintf("%d nodes are covered (k-dominating: %v), in a fresh count %d (%v)",
			a.CoveredCount(), a.IsKDominating(), b.CoveredCount(), b.IsKDominating())
	}
	return ""
}

// TestRefineCancelReturnsBestSoFar pins the anytime contract at the
// refiner layer: a cancel that fires immediately returns the start schedule
// (the best seen), not an error and never something worse.
func TestRefineCancelReturnsBestSoFar(t *testing.T) {
	in := hetInstance(t, 64, 3)
	g, budgets := in.Graph, in.Budgets
	base, err := Solve(in, Spec{Name: NameGreedy}, Options{Src: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{NameTabu, NameAnneal} {
		sv, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if !sv.refiner() {
			t.Fatalf("%s is not a refiner", name)
		}
		refine := func(cancel func() bool) *core.Schedule {
			return refineSchedule(in, base, &refinement{Budget: 50000, Cancel: cancel, Src: rng.New(1)},
				name, sv.policy(in.N(), 50000), nil)
		}
		out := refine(func() bool { return true })
		if out.Lifetime() != base.Lifetime() {
			t.Errorf("%s: canceled-at-once refinement returned lifetime %d, want the start's %d",
				name, out.Lifetime(), base.Lifetime())
		}

		// A cancel firing after a bounded number of polls must still yield a
		// feasible schedule no worse than the start.
		polls := 0
		out = refine(func() bool { polls++; return polls > 500 })
		if out.Lifetime() < base.Lifetime() {
			t.Errorf("%s: mid-flight cancel returned lifetime %d < start %d",
				name, out.Lifetime(), base.Lifetime())
		}
		if err := out.Validate(g, budgets, 1); err != nil {
			t.Errorf("%s: mid-flight cancel schedule invalid: %v", name, err)
		}
	}
}

// TestCancelDuringRefinementFails pins the driver's half of the anytime
// rule: a Cancel that fires while the refiner runs fails the solve with
// ErrCanceled, so no caller mistakes the truncated schedule for a finished
// one.
func TestCancelDuringRefinementFails(t *testing.T) {
	in := hetInstance(t, 64, 3)
	for _, name := range []string{NameTabu, NameAnneal} {
		polls := 0
		cancel := func() bool { polls++; return polls > 100 }
		s, err := Solve(in, Spec{Name: name, Base: NameGreedy},
			Options{Budget: 2_000_000_000, Cancel: cancel, Src: rng.New(1)})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: mid-refinement cancel gave error %v, want ErrCanceled", name, err)
		}
		if s != nil {
			t.Errorf("%s: canceled solve returned a schedule of lifetime %d", name, s.Lifetime())
		}
		if polls <= 100 {
			t.Errorf("%s: cancel polled %d times, so it never fired during refinement", name, polls)
		}
	}
}

// TestDeadlineDuringRefinementTruncates pins the other half: a Deadline,
// the time budget, that lapses while the refiner runs keeps its best
// schedule so far — feasible, no worse than the base, and no error.
func TestDeadlineDuringRefinementTruncates(t *testing.T) {
	in := hetInstance(t, 64, 3)
	base, err := Solve(in, Spec{Name: NameGreedy}, Options{Src: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{NameTabu, NameAnneal} {
		s, err := Solve(in, Spec{Name: name, Base: NameGreedy}, Options{
			Budget: 2_000_000_000, Deadline: time.Now().Add(50 * time.Millisecond), Src: rng.New(1)})
		if err != nil {
			t.Fatalf("%s: lapsed time budget failed the solve: %v", name, err)
		}
		if err := s.Validate(in.Graph, in.Budgets, 1); err != nil {
			t.Errorf("%s: truncated schedule infeasible: %v", name, err)
		}
		if s.Lifetime() < base.Lifetime() {
			t.Errorf("%s: truncated lifetime %d < base %d", name, s.Lifetime(), base.Lifetime())
		}
	}
}

// TestRefineSpecRejections pins the composition rules of the redesigned
// driver: refiners do not stack, bases must exist, and only refiners accept
// a base at all.
func TestRefineSpecRejections(t *testing.T) {
	in := hetInstance(t, 16, 1)
	cases := []struct {
		name string
		spec Spec
	}{
		{"nested refiner", Spec{Name: NameTabu, Base: NameAnneal}},
		{"unknown base", Spec{Name: NameAnneal, Base: "nope"}},
		{"base on plain solver", Spec{Name: NameGreedy, Base: NameUniform}},
		{"base on randomized solver", Spec{Name: NameUniform, Base: NameGreedy}},
	}
	for _, tc := range cases {
		if _, err := Solve(in, tc.spec, Options{Src: rng.New(1)}); err == nil {
			t.Errorf("%s: Solve(%+v) succeeded, want error", tc.name, tc.spec)
		}
	}
}

// TestRefineEmitsRefineEvents pins the observability side: one obs.Refine
// event per improvement pass, tagged with the refiner's name.
func TestRefineEmitsRefineEvents(t *testing.T) {
	in := hetInstance(t, 48, 5)
	var tap refineTap
	_, err := Solve(in, Spec{Name: NameAnneal, Base: NameGreedy},
		Options{Tries: 1, Budget: 2000, Src: rng.New(1), Hooks: obs.Hooks{Trace: &tap}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tap.names) == 0 {
		t.Fatal("no refine events emitted")
	}
	for _, name := range tap.names {
		if name != NameAnneal {
			t.Fatalf("refine event named %q, want %q", name, NameAnneal)
		}
	}
}

// refineTap collects the Name field of every obs.Refine event it sees.
type refineTap struct{ names []string }

func (r *refineTap) Emit(ev obs.Event) {
	if ev.Type == obs.EvRefine {
		r.names = append(r.names, ev.Name)
	}
}

// TestTabuGolden pins greedy+tabu and greedy+anneal solves byte for byte,
// at k = 1 and k = 2: the refiners' move sweeps, their re-extension and the
// greedy base all feed the schedule, so any moved pick, accept/reject
// decision or RNG draw changes its hash. The tabu k = 1 value was computed
// on the naive greedy loop. The budget-100 000 cases are solve-heavy's
// shape, 18 passes, where most phases are revisited unchanged.
func TestTabuGolden(t *testing.T) {
	cases := []struct {
		name                string
		n                   int
		seed                uint64
		k, budget, lifetime int
		want                string
	}{
		{NameTabu, 256, 13, 1, 20000, 141, "28c9fde91f3c3cbc98189c8f9523664ee17fb544e8b006f3bc1ca277f3449d5e"},
		{NameAnneal, 256, 13, 1, 20000, 142, "094cc035e86bf72720e88cf1fae3204f4b9b0a51ea93f901a12a46623c991303"},
		{NameTabu, 128, 17, 2, 20000, 84, "e110fc16f6566f0890133a4782c25f544f17e1c3f169482d90ad1287b717f4b3"},
		{NameAnneal, 128, 17, 2, 20000, 78, "5fc8138c85c19485a0e39d1d10d651ce192f7438e6a4e52ef653af8c8fb8928d"},
		{NameTabu, 256, 13, 1, 100000, 146, "8f986e18d5e1a7cbe5c8acc0e3362d3ea67b53b3b94e71a7b16768a80590165e"},
		{NameAnneal, 256, 13, 1, 100000, 144, "1173a222ee4e142b88d136fb16ae9fc4688b892b2618921600e3d50197dfe701"},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/n=%d/k=%d", tc.name, tc.n, tc.k)
		if tc.budget != 20000 {
			name += fmt.Sprintf("/budget=%d", tc.budget) // 20 000 is the unnamed default
		}
		t.Run(name, func(t *testing.T) {
			in := hetInstance(t, tc.n, tc.seed)
			if tc.k > 1 {
				in = in.WithK(tc.k)
			}
			s, err := Solve(in, Spec{Name: tc.name, Base: NameGreedy},
				Options{Tries: 1, Budget: tc.budget, Src: rng.New(tc.seed)})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want || s.Lifetime() != tc.lifetime {
				t.Errorf("greedy+%s schedule SHA-256 = %s (lifetime %d), want %s (lifetime %d)",
					tc.name, got, s.Lifetime(), tc.want, tc.lifetime)
			}
		})
	}
}

// scheduleSink keeps the compiler from eliding the solve BenchmarkRefine
// times.
var scheduleSink *core.Schedule

// BenchmarkRefine times one greedy+refiner solve on the golden fixture's
// instance, at the golden budget and at solve-heavy's budget of 100 000
// moves, which runs about 19 passes. The deadline is an hour ahead, so the
// per-move deadline poll is on the timed path, as it is on the serve path.
func BenchmarkRefine(b *testing.B) {
	in := hetInstance(b, 256, 13)
	for _, name := range []string{NameTabu, NameAnneal} {
		for _, budget := range []int{20000, 100000} {
			b.Run(fmt.Sprintf("%s/budget=%d", name, budget), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := Solve(in, Spec{Name: name, Base: NameGreedy}, Options{
						Tries: 1, Budget: budget, Src: rng.New(13), Deadline: time.Now().Add(time.Hour)})
					if err != nil {
						b.Fatal(err)
					}
					scheduleSink = s
				}
			})
		}
	}
}
