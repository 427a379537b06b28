package domset

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// sessionState extracts the session's view (members, alive) into the plain
// slices the fold path consumes, so both paths can be queried on the
// identical instant.
func sessionState(s *Session, n int) (set []int, alive []bool) {
	set = s.AppendMembers(nil)
	alive = make([]bool, n)
	for v := 0; v < n; v++ {
		alive[v] = s.IsAlive(v)
	}
	return set, alive
}

// checkAgainstFold cross-checks every session query against a fresh
// full-fold Checker on the session's current (set, alive) state.
func checkAgainstFold(t *testing.T, s *Session, ck *Checker, k int, label string) {
	t.Helper()
	n := ck.Graph().N()
	set, alive := sessionState(s, n)

	if got, want := s.IsKDominating(), ck.IsKDominating(set, k, alive); got != want {
		t.Fatalf("%s: IsKDominating = %v, fold path says %v", label, got, want)
	}
	if got, want := s.CoveredCount(), ck.CoveredCount(set, k, alive); got != want {
		t.Fatalf("%s: CoveredCount = %d, fold path says %d", label, got, want)
	}
	wantUndom := ck.AppendUndominated(nil, set, k, alive)
	gotUndom := s.AppendUndominated(nil)
	if len(gotUndom) != len(wantUndom) {
		t.Fatalf("%s: undominated %v, fold path says %v", label, gotUndom, wantUndom)
	}
	for i := range gotUndom {
		if gotUndom[i] != wantUndom[i] {
			t.Fatalf("%s: undominated %v, fold path says %v", label, gotUndom, wantUndom)
		}
	}
	if got, want := s.UndominatedCount(), len(wantUndom); got != want {
		t.Fatalf("%s: UndominatedCount = %d, want %d", label, got, want)
	}
	aliveN := 0
	for _, a := range alive {
		if a {
			aliveN++
		}
	}
	if got := s.AliveCount(); got != aliveN {
		t.Fatalf("%s: AliveCount = %d, want %d", label, got, aliveN)
	}
	for v := 0; v < n; v++ {
		if got, want := s.Dominators(v), naiveDominatorCount(ck.Graph(), set, alive, v); got != want {
			t.Fatalf("%s: Dominators(%d) = %d, naive says %d", label, v, got, want)
		}
	}
}

// checkProbes cross-checks DropKeeps and SwapKeeps against a fresh fold of
// the set each probe describes: every member dropped, and every member
// swapped for a non-member drawn from pick. The probes must leave the
// membership and coverage untouched.
func checkProbes(t *testing.T, s *Session, ck *Checker, k int, pick *rng.Source, label string) {
	t.Helper()
	n := ck.Graph().N()
	set, alive := sessionState(s, n)
	undom := s.UndominatedCount()
	var outside []int
	for v := 0; v < n; v++ {
		if !s.Contains(v) {
			outside = append(outside, v)
		}
	}
	trial := make([]int, 0, len(set)+1)
	for i, v := range set {
		trial = append(append(trial[:0], set[:i]...), set[i+1:]...)
		if got, want := s.DropKeeps(v), ck.IsKDominating(trial, k, alive); got != want {
			t.Fatalf("%s: DropKeeps(%d) = %v, fold of the set without it says %v", label, v, got, want)
		}
		if len(outside) == 0 {
			continue
		}
		u := outside[pick.Intn(len(outside))]
		trial = append(trial, u)
		if got, want := s.SwapKeeps(v, u), ck.IsKDominating(trial, k, alive); got != want {
			t.Fatalf("%s: SwapKeeps(%d, %d) = %v, fold of the swapped set says %v", label, v, u, got, want)
		}
	}
	if after := s.AppendMembers(nil); !slices.Equal(after, set) || s.UndominatedCount() != undom {
		t.Fatalf("%s: probes moved the session: members %v -> %v, undominated %d -> %d",
			label, set, after, undom, s.UndominatedCount())
	}
}

// TestSessionMatchesFold is the equivalence property of the incremental
// kernel: on random graphs, under random Begin states and random
// Flip/SetAlive sequences, every session query and probe must equal a fresh
// full-fold query on the same (set, alive) state — byte for byte, including
// the sorted undominated list. Odd trials run the session on the rowless
// sparse checker.
func TestSessionMatchesFold(t *testing.T) {
	src := rng.New(11)
	pick := rng.New(12)
	for trial := 0; trial < 30; trial++ {
		n := 1 + src.Intn(70)
		g := gen.GNP(n, 0.15, src)
		ck := NewChecker(g)
		sessCk := ck
		if trial%2 == 1 {
			sessCk = newSparseChecker(g)
		}
		for _, k := range []int{1, 2, 3} {
			var set []int
			for v := 0; v < n; v++ {
				if src.Intn(3) == 0 {
					set = append(set, v)
				}
			}
			if len(set) > 0 {
				set = append(set, set[0]) // duplicate member must collapse
			}
			var alive []bool
			if src.Intn(2) == 0 {
				alive = make([]bool, n)
				for v := range alive {
					alive[v] = src.Intn(5) != 0
				}
			}
			sess := sessCk.Begin(set, k, alive)
			checkProbes(t, sess, ck, k, pick, "after Begin")
			checkAgainstFold(t, sess, ck, k, "after Begin")
			for step := 0; step < 30; step++ {
				v := src.Intn(n)
				if src.Intn(3) == 0 {
					sess.SetAlive(v, src.Intn(2) == 0)
				} else {
					sess.Flip(v)
				}
				checkProbes(t, sess, ck, k, pick, "after delta")
				checkAgainstFold(t, sess, ck, k, "after delta")
			}
		}
	}
}

// TestSessionFlipIsItsOwnInverse: flipping the same node twice is a no-op
// on every observable.
func TestSessionFlipIsItsOwnInverse(t *testing.T) {
	g := gen.GNP(40, 0.2, rng.New(5))
	ck := NewChecker(g)
	set := Greedy(g)
	sess := ck.Begin(set, 1, nil)
	before := sess.CoveredCount()
	for v := 0; v < g.N(); v++ {
		sess.Flip(v)
		sess.Flip(v)
		if got := sess.CoveredCount(); got != before {
			t.Fatalf("double flip of %d moved CoveredCount %d -> %d", v, before, got)
		}
	}
}

// TestSessionDeadMemberContributesNothing pins the alive/member interplay:
// a dead member must not dominate, and membership must survive a
// death/revival round trip.
func TestSessionDeadMemberContributesNothing(t *testing.T) {
	// Path 0-1-2, set {1}: node 1 covers everyone.
	g := gen.Path(3)
	ck := NewChecker(g)
	sess := ck.Begin([]int{1}, 1, nil)
	if !sess.IsKDominating() {
		t.Fatal("center of a path must dominate it")
	}
	sess.SetAlive(1, false)
	if sess.IsKDominating() {
		t.Fatal("a dead dominator still dominates")
	}
	if got := sess.CoveredCount(); got != 0 {
		t.Fatalf("CoveredCount = %d with the only dominator dead, want 0", got)
	}
	if !sess.Contains(1) {
		t.Fatal("death must not revoke membership")
	}
	sess.SetAlive(1, true)
	if !sess.IsKDominating() {
		t.Fatal("revival must restore the member's contribution")
	}
}

// TestSessionValidation pins the contract panics: bad k, short alive mask,
// out-of-range nodes, probes of the wrong membership.
func TestSessionValidation(t *testing.T) {
	ck := NewChecker(gen.Path(4))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Begin k=0", func() { ck.Begin(nil, 0, nil) })
	mustPanic("Begin short alive", func() { ck.Begin(nil, 1, make([]bool, 2)) })
	mustPanic("fold-path short alive", func() { ck.IsKDominating(nil, 1, make([]bool, 2)) })
	mustPanic("free-function short alive", func() { IsKDominating(gen.Path(4), nil, 1, make([]bool, 2)) })
	sess := ck.Begin(nil, 1, nil)
	mustPanic("Flip out of range", func() { sess.Flip(4) })
	sess.Flip(0)
	mustPanic("DropKeeps of a non-member", func() { sess.DropKeeps(1) })
	mustPanic("DropKeeps out of range", func() { sess.DropKeeps(-1) })
	mustPanic("SwapKeeps out of a non-member", func() { sess.SwapKeeps(1, 2) })
	mustPanic("SwapKeeps in a member", func() { sess.SwapKeeps(0, 0) })
	mustPanic("SwapKeeps in out of range", func() { sess.SwapKeeps(0, 4) })
}

// TestSessionSparseChecker: Begin works on the rowless sparse checker too —
// the session walks adjacency, not packed rows.
func TestSessionSparseChecker(t *testing.T) {
	g := gen.GNP(30, 0.2, rng.New(3))
	ck := newSparseChecker(g)
	set := Greedy(g)
	sess := ck.Begin(set, 1, nil)
	if got, want := sess.IsKDominating(), IsKDominating(g, set, 1, nil); got != want {
		t.Fatalf("sparse session IsKDominating = %v, want %v", got, want)
	}
	sess.Flip(set[0])
	wantSet := sess.AppendMembers(nil)
	if got, want := sess.CoveredCount(), ck.CoveredCount(wantSet, 1, nil); got != want {
		t.Fatalf("sparse session CoveredCount = %d, want %d", got, want)
	}
}

// TestSessionZeroAllocs is the alloc-regression guard of the incremental
// kernel: after the first Begin has grown the buffers, steady-state
// Begin/Flip/SetAlive/probes/queries must allocate nothing — and a long-lived
// session must not grow with the number of flips applied to it.
func TestSessionZeroAllocs(t *testing.T) {
	g := gen.GNP(300, 0.05, rng.New(9))
	ck := NewChecker(g)
	set := Greedy(g)
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = v%7 != 0
	}
	undom := make([]int, 0, g.N())
	members := make([]int, 0, g.N())
	sess := ck.Begin(set, 2, alive) // warm up: grows the session buffers
	v := set[len(set)/2]
	u := 0
	for sess.Contains(u) {
		u++
	}
	// A second session on which set is k-dominating, so its probes take the
	// read-only pass; on sess (k = 2, some nodes dead) SwapKeeps flips.
	dominating := NewChecker(g).Begin(set, 1, nil)
	if !dominating.IsKDominating() {
		t.Fatal("greedy set does not dominate its graph")
	}

	checks := map[string]func(){
		"Begin": func() { sess = ck.Begin(set, 2, alive) },
		"Flip+queries": func() {
			sess.Flip(v)
			_ = sess.IsKDominating()
			_ = sess.CoveredCount()
			sess.Flip(v)
		},
		"SetAlive": func() {
			sess.SetAlive(v, false)
			sess.SetAlive(v, true)
		},
		"probes": func() {
			_ = sess.DropKeeps(v)
			_ = sess.SwapKeeps(v, u)
			_ = dominating.DropKeeps(v)
			_ = dominating.SwapKeeps(v, u)
		},
		"AppendUndominated": func() { undom = sess.AppendUndominated(undom[:0]) },
		"AppendMembers":     func() { members = sess.AppendMembers(members[:0]) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, allocs)
		}
	}

	// 1<<20 flips on one session: nothing may accumulate per mutation. The
	// 1 KiB slack absorbs runtime bookkeeping outside the loop.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1<<20; i++ {
		sess.Flip(i % g.N())
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<10 {
		t.Errorf("1<<20 flips on one session allocated %d bytes, want 0", grown)
	}
}

// TestCheckerAliveLengthValidation pins the satellite fix: a wrong-length
// alive mask must fail with the domset panic, not a bare out-of-range.
func TestCheckerAliveLengthValidation(t *testing.T) {
	for name, ck := range map[string]*Checker{
		"dense":  NewChecker(gen.Path(5)),
		"sparse": newSparseChecker(gen.Path(5)),
	} {
		for _, bad := range [][]bool{make([]bool, 4), make([]bool, 6)} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s: alive len %d did not panic", name, len(bad))
					}
					if msg, ok := r.(string); !ok || len(msg) < 6 || msg[:6] != "domset" {
						t.Fatalf("%s: panic %v is not the domset contract message", name, r)
					}
				}()
				ck.CoveredCount([]int{0}, 1, bad)
			}()
		}
		// nil stays "all alive".
		if !ck.IsKDominating([]int{0, 1, 2, 3, 4}, 1, nil) {
			t.Fatalf("%s: nil alive mask rejected", name)
		}
	}
}

// coveredSink keeps the compiler from eliding the O(1) query that
// BenchmarkSessionFlip times.
var coveredSink int

// BenchmarkSessionFlip times the incremental kernel's single-node delta: one
// O(deg) Flip plus one O(1) coverage query per op. The flipped node
// alternates in and out of a greedy
// k-dominating set, the heal/reconfig/prune access pattern. Read it against
// BenchmarkCheckerCoveredCount, the full re-fold the same query costs
// without a session.
func BenchmarkSessionFlip(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g, _ := benchCheckerGraph(n)
		ck := NewChecker(g)
		alive := make([]bool, n)
		for v := range alive {
			alive[v] = true
		}
		for _, k := range []int{1, 2} {
			set := GreedyK(g, k, nil, nil)
			if set == nil {
				b.Fatalf("n=%d: no %d-dominating set", n, k)
			}
			v := set[len(set)/2]
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				sess := ck.Begin(set, k, alive)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sess.Flip(v)
					coveredSink = sess.CoveredCount()
				}
			})
		}
	}
}
