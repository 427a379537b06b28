package domset

import (
	"fmt"
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

// TestSessionMatchesFold is the equivalence property of the incremental
// kernel: on random graphs, under random Begin states and random
// Flip/SetAlive sequences, every session query must equal a fresh full-fold
// query on the same (set, alive) state — byte for byte, including the
// sorted undominated list.
func TestSessionMatchesFold(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 30; trial++ {
		n := 1 + src.Intn(70)
		g := gen.GNP(n, 0.15, src)
		ck := NewChecker(g)
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
			sess := ck.Begin(set, k, alive)
			checkAgainstFold(t, sess, ck, k, "after Begin")
			for step := 0; step < 30; step++ {
				v := src.Intn(n)
				if src.Intn(3) == 0 {
					sess.SetAlive(v, src.Intn(2) == 0)
				} else {
					sess.Flip(v)
				}
				checkAgainstFold(t, sess, ck, k, "after delta")
			}
		}
	}
}

// TestSessionRollback pins the undo stack: state captured at a Mark must be
// reproduced exactly after a Rollback to it, including across nested marks,
// mixed Flip/SetAlive mutations, and repeated speculate/undo cycles.
func TestSessionRollback(t *testing.T) {
	src := rng.New(23)
	for trial := 0; trial < 20; trial++ {
		n := 2 + src.Intn(60)
		g := gen.GNP(n, 0.2, src)
		ck := NewChecker(g)
		k := 1 + src.Intn(2)
		var set []int
		for v := 0; v < n; v++ {
			if src.Intn(2) == 0 {
				set = append(set, v)
			}
		}
		sess := ck.Begin(set, k, nil)

		// Drift to a random base state, then snapshot it.
		for i := 0; i < 10; i++ {
			sess.Flip(src.Intn(n))
		}
		baseSet, baseAlive := sessionState(sess, n)
		baseCovered := sess.CoveredCount()
		mark := sess.Mark()

		for cycle := 0; cycle < 5; cycle++ {
			inner := sess.Mark()
			for i := 0; i < 8; i++ {
				v := src.Intn(n)
				if src.Intn(3) == 0 {
					sess.SetAlive(v, src.Intn(2) == 0)
				} else {
					sess.Flip(v)
				}
			}
			checkAgainstFold(t, sess, ck, k, "speculative state")
			if cycle%2 == 0 {
				sess.Rollback(inner)
			} else {
				sess.Rollback(mark)
			}
		}
		sess.Rollback(mark)

		gotSet, gotAlive := sessionState(sess, n)
		if len(gotSet) != len(baseSet) {
			t.Fatalf("rollback lost members: %v, want %v", gotSet, baseSet)
		}
		for i := range gotSet {
			if gotSet[i] != baseSet[i] {
				t.Fatalf("rollback members %v, want %v", gotSet, baseSet)
			}
		}
		for v := range gotAlive {
			if gotAlive[v] != baseAlive[v] {
				t.Fatalf("rollback alive[%d] = %v, want %v", v, gotAlive[v], baseAlive[v])
			}
		}
		if got := sess.CoveredCount(); got != baseCovered {
			t.Fatalf("rollback CoveredCount = %d, want %d", got, baseCovered)
		}
		checkAgainstFold(t, sess, ck, k, "after rollback")
	}
}

// TestSessionFlipIsItsOwnInverse: flipping the same node twice is a no-op
// on every observable, with or without an interleaved speculative window.
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
// out-of-range nodes, stale rollback epochs.
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
	mustPanic("stale epoch", func() { sess.Rollback(7) })
	m := sess.Mark()
	sess.Flip(0)
	sess.Commit()
	mustPanic("mark stale after Commit", func() { sess.Rollback(m + 1) })
	if !sess.Contains(0) {
		t.Fatal("Commit must keep state, only clear the log")
	}
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
// Begin/Flip/SetAlive/Mark/Rollback/queries must allocate nothing.
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
	// Warm the undo log to its steady-state capacity.
	m := sess.Mark()
	for i := 0; i < 64; i++ {
		sess.Flip(i % g.N())
	}
	sess.Rollback(m)

	checks := map[string]func(){
		"Begin": func() { sess = ck.Begin(set, 2, alive) },
		"Flip+queries": func() {
			sess.Flip(v)
			_ = sess.IsKDominating()
			_ = sess.CoveredCount()
			sess.Flip(v)
			sess.Commit() // the non-speculative steady state keeps the log flat
		},
		"SetAlive": func() {
			sess.SetAlive(v, false)
			sess.SetAlive(v, true)
		},
		"speculate+rollback": func() {
			mk := sess.Mark()
			sess.Flip(v)
			sess.SetAlive((v+1)%g.N(), false)
			sess.Rollback(mk)
		},
		"AppendUndominated": func() { undom = sess.AppendUndominated(undom[:0]) },
		"AppendMembers":     func() { members = sess.AppendMembers(members[:0]) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, allocs)
		}
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
// O(deg) Flip plus one O(1) coverage query per op, committed so the undo log
// stays flat. The flipped node alternates in and out of a greedy
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
				sess.Flip(v) // warm the undo log so the loop measures the steady state
				sess.Flip(v)
				sess.Commit()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sess.Flip(v)
					coveredSink = sess.CoveredCount()
					sess.Commit()
				}
			})
		}
	}
}
