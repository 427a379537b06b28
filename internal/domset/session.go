package domset

import (
	"fmt"

	"repro/internal/bitset"
)

// Session is the incremental half of the domination kernel. A Checker
// answers each query by re-folding every candidate row — O(n·Δ/64) words
// per call, paid in full even when the caller changed a single node since
// the last query. A Session pays that fold once, in Begin, and from then on
// maintains the kernel state — exact per-node dominator counters, the alive
// mask, and the undominated set — under single-node deltas in O(deg(v))
// words per Flip/SetAlive, with O(1) coverage queries.
//
// This is the shape of every hot single-delta caller: heal's recruit loop
// (enlist one node, recheck), reconfig's slot-by-slot verification
// (consecutive phases differ in a few members), and local-search refiners
// (try dropping or swapping one dominator, keep the move only if the set
// stays covered). For the last, DropKeeps and SwapKeeps answer "would this
// move keep the set k-dominating?" with one read-only pass over the moved
// nodes' neighborhoods, so a rejected move costs no mutation at all; an
// accepted one is then applied with Flip, which is its own inverse.
//
// Invariants maintained after every operation, matching the fold path's
// contract bit for bit:
//
//	counts[v] = |N+[v] ∩ members ∩ alive|     (exact, not saturated)
//	undom     = { v : alive[v] && counts[v] < k }
//	IsKDominating() == Checker.IsKDominating(members, k, alive)
//
// Dead members contribute nothing (a dead dominator dominates no one);
// dead nodes need no coverage. Duplicate members in Begin's set collapse.
//
// A Checker owns one Session: Begin resets and returns it, so steady-state
// reuse allocates nothing (the property tests pin this). Beginning a new
// session invalidates the previous one. Fold-path Checker queries may be
// interleaved with an active session — they use disjoint scratch — but like
// the Checker itself a Session is not safe for concurrent use.
type Session struct {
	c *Checker
	k int

	counts []int32     // exact dominator count per node
	member *bitset.Set // declared membership (kept even for dead members)
	alive  *bitset.Set // alive mask snapshot, maintained by SetAlive
	undom  *bitset.Set // alive nodes with counts < k
	undomN int
	aliveN int
}

// Begin starts (or restarts) an incremental session over the candidate set
// with tolerance k and the given alive mask (nil = all alive). It pays one
// O(Σ deg) batch fold; every subsequent Flip/SetAlive is O(deg(v)) and every
// coverage query O(1). k must be >= 1 — the k = 0 "vacuously dominated"
// convention of the one-shot queries has no meaningful incremental state.
// alive, when non-nil, must hold exactly one flag per node.
func (c *Checker) Begin(set []int, k int, alive []bool) *Session {
	if k < 1 {
		panic(fmt.Sprintf("domset: session tolerance k = %d must be >= 1", k))
	}
	c.checkAlive(alive)
	s := c.session
	if s == nil {
		s = &Session{
			c:      c,
			counts: make([]int32, c.n),
			member: bitset.New(c.n),
			alive:  bitset.New(c.n),
			undom:  bitset.New(c.n),
		}
		c.session = s
	}
	s.k = k
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.member.Reset()
	s.undom.Reset()

	if alive == nil {
		s.alive.CopyFrom(c.full)
		s.aliveN = c.n
	} else {
		s.alive.Reset()
		s.aliveN = 0
		words := s.alive.Words()
		for v, a := range alive {
			if a {
				words[v>>6] |= 1 << uint(v&63)
				s.aliveN++
			}
		}
	}

	// Batch fold: one pass of counter bumps per alive member's closed
	// neighborhood, then one linear sweep to derive the undominated set.
	for _, v := range set {
		c.checkNode(v)
		if s.member.Test(v) {
			continue // duplicate member collapses
		}
		s.member.Set(v)
		if s.alive.Test(v) {
			s.counts[v]++
			for _, u := range c.g.Neighbors(v) {
				s.counts[u]++
			}
		}
	}
	s.undomN = 0
	aw := s.alive.Words()
	uw := s.undom.Words()
	kk := int32(k)
	for v := 0; v < c.n; v++ {
		if aw[v>>6]&(1<<uint(v&63)) != 0 && s.counts[v] < kk {
			uw[v>>6] |= 1 << uint(v&63)
			s.undomN++
		}
	}
	return s
}

// K returns the session's domination tolerance.
func (s *Session) K() int { return s.k }

// Contains reports whether v is currently a member of the candidate set.
func (s *Session) Contains(v int) bool { return s.member.Test(v) }

// IsAlive reports whether v is currently alive in the session's mask.
func (s *Session) IsAlive(v int) bool { return s.alive.Test(v) }

// Dominators returns v's exact current dominator count
// |N+[v] ∩ members ∩ alive|.
func (s *Session) Dominators(v int) int {
	s.c.checkNode(v)
	return int(s.counts[v])
}

// AliveCount returns the number of alive nodes. O(1).
func (s *Session) AliveCount() int { return s.aliveN }

// IsKDominating reports whether every alive node has at least k alive
// dominators in the current set. O(1).
func (s *Session) IsKDominating() bool { return s.undomN == 0 }

// CoveredCount returns how many alive nodes have at least k alive
// dominators in the current set. O(1).
func (s *Session) CoveredCount() int { return s.aliveN - s.undomN }

// UndominatedCount returns how many alive nodes are under-covered. O(1).
func (s *Session) UndominatedCount() int { return s.undomN }

// AppendUndominated appends the sorted alive under-covered nodes to dst and
// returns the extended slice; with a pre-grown dst it allocates nothing.
func (s *Session) AppendUndominated(dst []int) []int { return s.undom.AppendBits(dst) }

// AppendMembers appends the sorted current candidate set to dst and returns
// the extended slice — the way a refiner extracts its pruned set.
func (s *Session) AppendMembers(dst []int) []int { return s.member.AppendBits(dst) }

// Flip toggles v's membership in the candidate set and updates the kernel
// state in O(deg(v)) words. Flip is its own inverse: flipping v twice
// restores every counter and mask exactly.
func (s *Session) Flip(v int) {
	s.c.checkNode(v)
	nowMember := s.member.Toggle(v)
	if !s.alive.Test(v) {
		return // dead members contribute nothing; counters untouched
	}
	if nowMember {
		s.contribute(v, 1)
	} else {
		s.contribute(v, -1)
	}
}

// SetAlive sets v's alive flag. A node dying withdraws its dominator
// contribution (if a member) and leaves the undominated set (the dead need
// no coverage); a node reviving does the reverse. No-op when the flag
// already matches.
func (s *Session) SetAlive(v int, up bool) {
	s.c.checkNode(v)
	if s.alive.Test(v) == up {
		return
	}
	if !up {
		// Dying: withdraw the contribution while v still counts as alive
		// (contribute's threshold updates skip dead nodes), then drop v from
		// the covered universe.
		if s.member.Test(v) {
			s.contribute(v, -1)
		}
		s.alive.Clear(v)
		s.aliveN--
		if s.undom.Test(v) {
			s.undom.Clear(v)
			s.undomN--
		}
		return
	}
	// Reviving: v rejoins the covered universe with its current count, then
	// its own membership contribution (if any) is restored.
	s.alive.Set(v)
	s.aliveN++
	if s.counts[v] < int32(s.k) {
		s.undom.Set(v)
		s.undomN++
	}
	if s.member.Test(v) {
		s.contribute(v, 1)
	}
}

// DropKeeps reports whether the set stays k-dominating without member v —
// exactly what Flip(v) followed by IsKDominating would return — without
// mutating the session. O(deg(v)), stopping at the first node the removal
// would leave under-covered. v must be a member.
func (s *Session) DropKeeps(v int) bool {
	s.checkMember("DropKeeps", v, true)
	return s.undomN == 0 && s.dropKeeps(v, -1)
}

// SwapKeeps reports whether the set stays k-dominating once member out
// leaves and non-member in joins — exactly what Flip(out), Flip(in) and
// IsKDominating would return. On a k-dominating set it reads N+[out] once,
// crediting nodes in N+[in] by binary search over in's sorted adjacency,
// and mutates nothing. On a set that is not, only in can close the holes,
// so it applies both flips, reads the answer and flips them back.
func (s *Session) SwapKeeps(out, in int) bool {
	s.checkMember("SwapKeeps", out, true)
	s.checkMember("SwapKeeps", in, false)
	if s.undomN != 0 {
		s.Flip(out)
		s.Flip(in)
		ok := s.undomN == 0
		s.Flip(in)
		s.Flip(out)
		return ok
	}
	if !s.alive.Test(in) {
		in = -1 // a dead newcomer dominates no one
	}
	return s.dropKeeps(out, in)
}

// checkMember panics unless v's membership is want: the probes' contract.
func (s *Session) checkMember(op string, v int, want bool) {
	s.c.checkNode(v)
	if s.member.Test(v) != want {
		panic(fmt.Sprintf("domset: %s(%d) on a node whose membership is %v", op, v, !want))
	}
}

// dropKeeps is the probes' read-only pass over a k-dominating set: removing
// alive member v takes one dominator from every node of N+[v], so each alive
// one must hold more than k, unless it lies in N+[in] of the alive incoming
// node in (in < 0: none), which hands it one back.
func (s *Session) dropKeeps(v, in int) bool {
	aw := s.alive.Words()
	if aw[v>>6]&(1<<uint(v&63)) == 0 {
		return true // a dead member dominates no one
	}
	kk := int32(s.k)
	if !s.spare(v, in, kk, aw) {
		return false
	}
	for _, u := range s.c.g.Neighbors(v) {
		if !s.spare(int(u), in, kk, aw) {
			return false
		}
	}
	return true
}

// spare reports whether u stays covered after losing one dominator.
func (s *Session) spare(u, in int, k int32, aw []uint64) bool {
	return s.counts[u] > k || aw[u>>6]&(1<<uint(u&63)) == 0 ||
		(in >= 0 && (u == in || s.c.g.HasEdge(in, u)))
}

// contribute applies d (±1) to the dominator count of every node in v's
// closed neighborhood, maintaining the undominated set across the k
// threshold for alive nodes. O(deg(v)) words. The alive/undom words are
// hoisted out of the per-neighbor work so the inner bump is branch-light —
// this loop IS the cost of a Flip, and the bench pins its speedup over the
// fold path.
func (s *Session) contribute(v int, d int32) {
	kk := int32(s.k)
	aw := s.alive.Words()
	uw := s.undom.Words()
	s.bump(v, d, kk, aw, uw)
	for _, u := range s.c.g.Neighbors(v) {
		s.bump(int(u), d, kk, aw, uw)
	}
}

func (s *Session) bump(u int, d, k int32, aw, uw []uint64) {
	c := s.counts[u] + d
	s.counts[u] = c
	w, bit := u>>6, uint64(1)<<uint(u&63)
	if aw[w]&bit == 0 {
		return // dead nodes need no coverage bookkeeping
	}
	if d > 0 {
		if c == k { // crossed up: now covered
			uw[w] &^= bit
			s.undomN--
		}
	} else if c == k-1 { // crossed down: now under-covered
		uw[w] |= bit
		s.undomN++
	}
}
