package domset

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// naiveMembers is the reference membership: the alive members of set, with
// duplicates collapsed.
func naiveMembers(g *graph.Graph, set []int, alive []bool) []bool {
	in := make([]bool, g.N())
	for _, s := range set {
		if alive == nil || alive[s] {
			in[s] = true
		}
	}
	return in
}

// naiveDominatorCount is the straight-line reference the session is
// verified against: |N+[v] ∩ in|, for in from naiveMembers.
func naiveDominatorCount(g *graph.Graph, in []bool, v int) int {
	count := 0
	if in[v] {
		count++
	}
	for _, u := range g.Neighbors(v) {
		if in[u] {
			count++
		}
	}
	return count
}

func naiveUndominated(g *graph.Graph, set []int, k int, alive []bool) []int {
	in := naiveMembers(g, set, alive)
	var out []int
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		if naiveDominatorCount(g, in, v) < k {
			out = append(out, v)
		}
	}
	return out
}

func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// checkAgainstNaive cross-checks every session query against the naive
// reference on the (set, alive) state the session must hold.
func checkAgainstNaive(t *testing.T, s *Session, set []int, alive []bool, k int, label string) {
	t.Helper()
	g := s.Graph()
	n := g.N()
	wantUndom := naiveUndominated(g, set, k, alive)
	aliveN := n
	if alive != nil {
		aliveN = countTrue(alive)
	}
	if got, want := s.IsKDominating(), len(wantUndom) == 0; got != want {
		t.Fatalf("%s: IsKDominating = %v, naive says %v", label, got, want)
	}
	if got, want := s.CoveredCount(), aliveN-len(wantUndom); got != want {
		t.Fatalf("%s: CoveredCount = %d, naive says %d", label, got, want)
	}
	if got := s.AppendUndominated(nil); !slices.Equal(got, wantUndom) {
		t.Fatalf("%s: undominated %v, naive says %v", label, got, wantUndom)
	}
	if got := s.AliveCount(); got != aliveN {
		t.Fatalf("%s: AliveCount = %d, want %d", label, got, aliveN)
	}
	in := naiveMembers(g, set, alive)
	for v := 0; v < n; v++ {
		if got, want := s.Dominators(v), naiveDominatorCount(g, in, v); got != want {
			t.Fatalf("%s: Dominators(%d) = %d, naive says %d", label, v, got, want)
		}
	}
}

// randomState draws a candidate set with one duplicate member and, half the
// time, an alive mask with about a fifth of the nodes dead.
func randomState(n int, src *rng.Source) (set []int, alive []bool) {
	for v := 0; v < n; v++ {
		if src.Intn(3) == 0 {
			set = append(set, v)
		}
	}
	if len(set) > 0 {
		set = append(set, set[0]) // duplicate member must collapse
	}
	if src.Intn(2) == 0 {
		alive = make([]bool, n)
		for v := range alive {
			alive[v] = src.Intn(5) != 0
		}
	}
	return set, alive
}

// TestCheckerMatchesNaive cross-checks one-shot queries — Reset plus a
// read, and the free IsKDominating — against the naive reference on random
// graphs with random candidate sets, duplicate members, dead nodes, and k
// in 1..4. One session per graph serves every query, so a Reset must leave
// nothing of the previous set behind.
func TestCheckerMatchesNaive(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		n := 1 + src.Intn(90)
		g := gen.GNP(n, 0.15, src)
		s := NewSession(g)
		for rep := 0; rep < 4; rep++ {
			set, alive := randomState(n, src)
			for k := 1; k <= 4; k++ {
				label := fmt.Sprintf("n=%d k=%d", n, k)
				checkAgainstNaive(t, s.Reset(set, k, alive), set, alive, k, label)
				if got, want := IsKDominating(g, set, k, alive), len(naiveUndominated(g, set, k, alive)) == 0; got != want {
					t.Fatalf("%s: free IsKDominating = %v, want %v", label, got, want)
				}
			}
		}
	}
}

// TestCheckerKBelowOne pins the free functions' k < 1 convention: a demand
// of zero dominators is always met, but the set and mask are still checked.
func TestCheckerKBelowOne(t *testing.T) {
	g := gen.Path(4)
	for _, k := range []int{0, -1} {
		if !IsKDominating(g, nil, k, nil) {
			t.Fatalf("k=%d must be vacuously dominated (free-function contract)", k)
		}
	}
	for name, fn := range map[string]func(){
		"member out of range": func() { IsKDominating(g, []int{4}, 0, nil) },
		"short alive":         func() { IsKDominating(g, nil, 0, make([]bool, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("k=0 with %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCheckerEmptyGraph(t *testing.T) {
	g := graph.New(0)
	s := NewSession(g).Reset(nil, 1, nil)
	if !s.IsKDominating() || !IsKDominating(g, nil, 1, nil) {
		t.Fatal("empty graph must be vacuously dominated")
	}
	if s.CoveredCount() != 0 {
		t.Fatal("empty graph covered count must be 0")
	}
}

func TestCheckerPanicsOutOfRange(t *testing.T) {
	s := NewSession(gen.Path(3))
	for _, set := range [][]int{{3}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("set %v did not panic", set)
				}
			}()
			s.Reset(set, 1, nil)
		}()
	}
}

// TestCheckerZeroAllocs is the allocation-regression guard of the one-shot
// queries: once a session exists, Reset plus any read allocates nothing.
func TestCheckerZeroAllocs(t *testing.T) {
	g := gen.GNP(300, 0.05, rng.New(9))
	s := NewSession(g)
	set := Greedy(g)
	if set == nil {
		t.Fatal("greedy failed")
	}
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = v%7 != 0
	}
	undom := make([]int, 0, g.N())
	for _, k := range []int{1, 3} {
		checks := map[string]func(){
			"IsKDominating":     func() { _ = s.Reset(set, k, alive).IsKDominating() },
			"CoveredCount":      func() { _ = s.Reset(set, k, alive).CoveredCount() },
			"AppendUndominated": func() { undom = s.Reset(set, k, alive).AppendUndominated(undom[:0]) },
		}
		for name, fn := range checks {
			if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
				t.Errorf("k=%d: Reset+%s allocates %.1f per call, want 0", k, name, allocs)
			}
		}
	}
}

// checkProbes cross-checks DropKeeps and SwapKeeps against the naive
// reference on the set each probe describes: every member dropped, and every
// member swapped for a non-member drawn from pick. The probes must leave the
// membership and coverage untouched.
func checkProbes(t *testing.T, s *Session, set []int, alive []bool, k int, pick *rng.Source, label string) {
	t.Helper()
	g := s.Graph()
	undom := s.AppendUndominated(nil)
	var outside []int
	for v := 0; v < g.N(); v++ {
		if !slices.Contains(set, v) {
			outside = append(outside, v)
		}
	}
	trial := make([]int, 0, len(set)+1)
	for i, v := range set {
		trial = append(append(trial[:0], set[:i]...), set[i+1:]...)
		if got, want := s.DropKeeps(v), len(naiveUndominated(g, trial, k, alive)) == 0; got != want {
			t.Fatalf("%s: DropKeeps(%d) = %v, naive check of the set without it says %v", label, v, got, want)
		}
		if len(outside) == 0 {
			continue
		}
		u := outside[pick.Intn(len(outside))]
		trial = append(trial, u)
		if got, want := s.SwapKeeps(v, u), len(naiveUndominated(g, trial, k, alive)) == 0; got != want {
			t.Fatalf("%s: SwapKeeps(%d, %d) = %v, naive check of the swapped set says %v", label, v, u, got, want)
		}
	}
	if after := s.AppendMembers(nil); !slices.Equal(after, set) || !slices.Equal(s.AppendUndominated(nil), undom) {
		t.Fatalf("%s: probes moved the session: members %v -> %v, undominated %v -> %v",
			label, set, after, undom, s.AppendUndominated(nil))
	}
}

// TestSessionMatchesNaive is the equivalence property of the incremental
// kernel: on random graphs, under random Reset states and random
// Flip/SetAlive sequences, every session query and probe must equal the
// naive reference on the (set, alive) state the test tracks itself —
// including the sorted undominated list.
func TestSessionMatchesNaive(t *testing.T) {
	src := rng.New(11)
	pick := rng.New(12)
	for trial := 0; trial < 30; trial++ {
		n := 1 + src.Intn(70)
		g := gen.GNP(n, 0.15, src)
		s := NewSession(g)
		for _, k := range []int{1, 2, 3} {
			set, alive := randomState(n, src)
			s.Reset(set, k, alive)
			member := make([]bool, n)
			for _, v := range set {
				member[v] = true
			}
			if alive == nil {
				alive = make([]bool, n)
				for v := range alive {
					alive[v] = true
				}
			}
			check := func(label string) {
				t.Helper()
				set = set[:0]
				for v, m := range member {
					if m {
						set = append(set, v)
					}
					if s.Contains(v) != m || s.IsAlive(v) != alive[v] {
						t.Fatalf("%s: node %d member=%v alive=%v, want %v %v",
							label, v, s.Contains(v), s.IsAlive(v), m, alive[v])
					}
				}
				checkProbes(t, s, set, alive, k, pick, label)
				checkAgainstNaive(t, s, set, alive, k, label)
			}
			check("after Reset")
			for step := 0; step < 30; step++ {
				v := src.Intn(n)
				if src.Intn(3) == 0 {
					up := src.Intn(2) == 0
					s.SetAlive(v, up)
					alive[v] = up
				} else {
					s.Flip(v)
					member[v] = !member[v]
				}
				check("after delta")
			}
		}
	}
}

// TestSessionFlipIsItsOwnInverse: flipping the same node twice is a no-op
// on every observable.
func TestSessionFlipIsItsOwnInverse(t *testing.T) {
	g := gen.GNP(40, 0.2, rng.New(5))
	set := Greedy(g)
	sess := NewSession(g).Reset(set, 1, nil)
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
	sess := NewSession(gen.Path(3)).Reset([]int{1}, 1, nil)
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
	s := NewSession(gen.Path(4))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Reset k=0", func() { s.Reset(nil, 0, nil) })
	mustPanic("Reset short alive", func() { s.Reset(nil, 1, make([]bool, 2)) })
	mustPanic("free-function short alive", func() { IsKDominating(gen.Path(4), nil, 1, make([]bool, 2)) })
	sess := s.Reset(nil, 1, nil)
	mustPanic("Flip out of range", func() { sess.Flip(4) })
	sess.Flip(0)
	mustPanic("DropKeeps of a non-member", func() { sess.DropKeeps(1) })
	mustPanic("DropKeeps out of range", func() { sess.DropKeeps(-1) })
	mustPanic("SwapKeeps out of a non-member", func() { sess.SwapKeeps(1, 2) })
	mustPanic("SwapKeeps in a member", func() { sess.SwapKeeps(0, 0) })
	mustPanic("SwapKeeps in out of range", func() { sess.SwapKeeps(0, 4) })
}

// TestSessionZeroAllocs is the alloc-regression guard of the incremental
// kernel: steady-state Reset/Flip/SetAlive/probes/queries must allocate
// nothing — and a long-lived session must not grow with the number of flips
// applied to it.
func TestSessionZeroAllocs(t *testing.T) {
	g := gen.GNP(300, 0.05, rng.New(9))
	set := Greedy(g)
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = v%7 != 0
	}
	undom := make([]int, 0, g.N())
	members := make([]int, 0, g.N())
	sess := NewSession(g).Reset(set, 2, alive)
	v := set[len(set)/2]
	u := 0
	for sess.Contains(u) {
		u++
	}
	// A second session on which set is k-dominating, so its probes take the
	// read-only pass; on sess (k = 2, some nodes dead) SwapKeeps flips.
	dominating := NewSession(g).Reset(set, 1, nil)
	if !dominating.IsKDominating() {
		t.Fatal("greedy set does not dominate its graph")
	}

	checks := map[string]func(){
		"Reset": func() { sess.Reset(set, 2, alive) },
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

// TestCheckerAliveLengthValidation pins the alive-mask contract: a
// wrong-length mask must fail with the domset panic, not a bare
// out-of-range.
func TestCheckerAliveLengthValidation(t *testing.T) {
	g := gen.Path(5)
	s := NewSession(g)
	for name, query := range map[string]func(alive []bool){
		"Reset":         func(alive []bool) { s.Reset([]int{0}, 1, alive) },
		"IsKDominating": func(alive []bool) { IsKDominating(g, []int{0}, 1, alive) },
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
				query(bad)
			}()
		}
	}
	// nil stays "all alive".
	if !s.Reset([]int{0, 1, 2, 3, 4}, 1, nil).IsKDominating() {
		t.Fatal("nil alive mask rejected")
	}
}

func benchSessionGraph(n int) (*graph.Graph, []int) {
	p := 10 * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	g := gen.GNP(n, p, rng.New(uint64(n)))
	return g, Greedy(g)
}

// Sinks keep the compiler from eliding the reads the benchmarks time.
var (
	coveredSink   int
	dominatedSink bool
)

// BenchmarkResetCoveredCount times a one-shot query: Reset loads the set,
// then one O(1) read.
func BenchmarkResetCoveredCount(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g, set := benchSessionGraph(n)
		s := NewSession(g)
		alive := make([]bool, n)
		for v := range alive {
			alive[v] = true
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coveredSink = s.Reset(set, 1, alive).CoveredCount()
			}
		})
	}
}

func BenchmarkResetIsKDominating(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g, set := benchSessionGraph(n)
		s := NewSession(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dominatedSink = s.Reset(set, 1, nil).IsKDominating()
			}
		})
	}
}

func BenchmarkResetAppendUndominated(b *testing.B) {
	g, set := benchSessionGraph(1024)
	s := NewSession(g)
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = v%5 != 0
	}
	buf := make([]int, 0, g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = s.Reset(set, 2, alive).AppendUndominated(buf[:0])
	}
}

// BenchmarkSessionFlip times the incremental kernel's single-node delta: one
// O(deg) Flip plus one O(1) coverage query per op. The flipped node
// alternates in and out of a greedy k-dominating set, the
// heal/reconfig/prune access pattern. Read it against
// BenchmarkResetCoveredCount, the full Reset the same query costs without
// the delta.
func BenchmarkSessionFlip(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g, _ := benchSessionGraph(n)
		s := NewSession(g)
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
				sess := s.Reset(set, k, alive)
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

// TestSetMembersMatchesReset drives one session through sequences of sets
// with SetMembers, between alive-mask changes made with SetAlive, and
// requires every query to equal a fresh session's after Reset with the same
// set, k and mask. The sets are unsorted and carry duplicates. SetMembers of
// the current set must change nothing, an out-of-range member must panic
// and leave the session as it was, and a steady-state call must allocate
// nothing.
func TestSetMembersMatchesReset(t *testing.T) {
	src := rng.New(21)
	same := func(label string, got, want *Session) {
		t.Helper()
		for v := 0; v < got.n; v++ {
			if g, w := got.Dominators(v), want.Dominators(v); g != w {
				t.Fatalf("%s: Dominators(%d) = %d, Reset gives %d", label, v, g, w)
			}
		}
		if g, w := got.IsKDominating(), want.IsKDominating(); g != w {
			t.Fatalf("%s: IsKDominating = %v, Reset gives %v", label, g, w)
		}
		if g, w := got.CoveredCount(), want.CoveredCount(); g != w {
			t.Fatalf("%s: CoveredCount = %d, Reset gives %d", label, g, w)
		}
		if g, w := got.AppendUndominated(nil), want.AppendUndominated(nil); !slices.Equal(g, w) {
			t.Fatalf("%s: undominated %v, Reset gives %v", label, g, w)
		}
		if g, w := got.AppendMembers(nil), want.AppendMembers(nil); !slices.Equal(g, w) {
			t.Fatalf("%s: members %v, Reset gives %v", label, g, w)
		}
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + src.Intn(80)
		g := gen.GNP(n, 0.1, src)
		for k := 1; k <= 3; k++ {
			s := NewSession(g).Reset(nil, k, nil)
			alive := make([]bool, n)
			for v := range alive {
				alive[v] = true
			}
			for step := 0; step < 20; step++ {
				label := fmt.Sprintf("trial %d n=%d k=%d step %d", trial, n, k, step)
				for range src.Intn(3) {
					v, up := src.Intn(n), src.Intn(4) == 0
					s.SetAlive(v, up)
					alive[v] = up
				}
				set := make([]int, src.Intn(n+1))
				for i := range set {
					set[i] = src.Intn(n) // unsorted, with repeats
				}
				s.SetMembers(set)
				want := NewSession(g).Reset(set, k, alive)
				same(label, s, want)
				s.SetMembers(s.AppendMembers(nil))
				same(label+", current set again", s, want)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s: SetMembers with node %d did not panic", label, n)
						}
					}()
					s.SetMembers([]int{0, n})
				}()
				same(label+", after an out-of-range panic", s, want)
			}
		}
	}

	// Once its scratch exists, SetMembers allocates nothing.
	g := gen.GNP(300, 0.05, rng.New(9))
	a := Greedy(g)
	b := append(slices.Clone(a[len(a)/2:]), 2, 1, 0, 2)
	s := NewSession(g).Reset(nil, 1, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		s.SetMembers(a)
		s.SetMembers(b)
	}); allocs != 0 {
		t.Fatalf("SetMembers: %.1f allocations per run, want 0", allocs)
	}
}
