package domset

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Session is the domination kernel. It holds exact per-node dominator
// counters for one candidate set on one graph, so every coverage question
// — is the set k-dominating, how many alive nodes are covered, which are
// not — is an O(1) read or one pass over the undominated set.
//
// Reset loads a set in O(n + Σ deg) and returns the session, so a one-shot
// query is Reset plus a read. From then on Flip and SetAlive maintain the
// state under single-node deltas in O(deg(v)), and SetMembers moves it to
// another set by flipping only the nodes whose membership differs. Those
// are the shapes of every hot caller: heal's recruit loop (enlist one node,
// recheck); shard.Stitch, reconfig.Compute's plan check and
// reconfig.Simulate, which move one session with SetMembers from segment
// to segment, phase to phase and slot to slot (neighbors differ in a few
// members); and the local-search refiners (try dropping or swapping one
// dominator, keep the move only if the set stays covered). For the last,
// DropKeeps and SwapKeeps answer "would this move keep the set
// k-dominating?" with one read-only pass over the moved nodes'
// neighborhoods, so a rejected move costs no mutation at all; an accepted
// one is then applied with Flip, which is its own inverse.
//
// Invariants maintained after every operation:
//
//	counts[v] = |N+[v] ∩ members ∩ alive|     (exact, not saturated)
//	undom     = { v : alive[v] && counts[v] < k }
//
// Dead members contribute nothing (a dead dominator dominates no one);
// dead nodes need no coverage. Duplicate members collapse.
//
// The state is O(n) words whatever the graph's density, and a Reset reuses
// it, so steady-state reuse allocates nothing (the property tests pin
// this). A Session is not safe for concurrent use; hold one per goroutine.
type Session struct {
	g *graph.Graph
	n int
	k int

	counts []int32     // exact dominator count per node
	member *bitset.Set // declared membership (kept even for dead members)
	alive  *bitset.Set // alive mask snapshot, maintained by SetAlive
	undom  *bitset.Set // alive nodes with counts < k
	next   *bitset.Set // SetMembers' target membership; nil until its first call
	undomN int
	aliveN int
}

// NewSession returns a session over g. Call Reset before any other method.
func NewSession(g *graph.Graph) *Session {
	n := g.N()
	return &Session{
		g:      g,
		n:      n,
		counts: make([]int32, n),
		member: bitset.New(n),
		alive:  bitset.New(n),
		undom:  bitset.New(n),
	}
}

// Graph returns the graph the session was built for.
func (s *Session) Graph() *graph.Graph { return s.g }

func (s *Session) checkNode(v int) {
	if v < 0 || v >= s.n {
		panic(fmt.Sprintf("domset: node %d out of range", v))
	}
}

// checkAlive enforces the alive-mask contract: nil means all nodes alive,
// and a non-nil mask carries exactly one flag per node, so a short or long
// slice fails fast with an actionable message instead of a bare
// index-out-of-range.
func (s *Session) checkAlive(alive []bool) {
	if alive != nil && len(alive) != s.n {
		panic(fmt.Sprintf("domset: %d alive flags for %d nodes", len(alive), s.n))
	}
}

// Reset loads the candidate set with tolerance k and the given alive mask
// (nil = all alive) and returns s. It pays one O(n + Σ deg) fold of counter
// bumps; every later Flip/SetAlive is O(deg(v)) and every coverage query
// O(1). k must be >= 1: a demand of zero dominators has no meaningful
// incremental state. alive, when non-nil, must hold exactly one flag per
// node. Members out of range panic.
func (s *Session) Reset(set []int, k int, alive []bool) *Session {
	if k < 1 {
		panic(fmt.Sprintf("domset: session tolerance k = %d must be >= 1", k))
	}
	s.checkAlive(alive)
	s.k = k
	clear(s.counts)
	s.member.Reset()
	s.undom.Reset()

	if alive == nil {
		s.alive.Fill()
		s.aliveN = s.n
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

	// One pass of counter bumps per alive member's closed neighborhood,
	// then one linear sweep to derive the undominated set.
	for _, v := range set {
		s.checkNode(v)
		if s.member.Test(v) {
			continue // duplicate member collapses
		}
		s.member.Set(v)
		if s.alive.Test(v) {
			s.counts[v]++
			for _, u := range s.g.Neighbors(v) {
				s.counts[u]++
			}
		}
	}
	s.undomN = 0
	aw := s.alive.Words()
	uw := s.undom.Words()
	kk := int32(k)
	for v := 0; v < s.n; v++ {
		if aw[v>>6]&(1<<uint(v&63)) != 0 && s.counts[v] < kk {
			uw[v>>6] |= 1 << uint(v&63)
			s.undomN++
		}
	}
	return s
}

// SetMembers makes set the candidate set, keeping k and the alive mask. It
// flips exactly the nodes whose membership differs, the XOR of the member
// bitset with set's, so moving between two sets that share most members
// costs one O(n/64) word sweep plus O(deg) per changed node, where Reset
// would recount every neighborhood. Duplicate members collapse; a member
// out of range panics before anything changes. Like Reset, it records dead
// members without counting them. The scratch bitset is allocated on the
// first call, so a steady-state call allocates nothing.
func (s *Session) SetMembers(set []int) {
	for _, v := range set {
		s.checkNode(v)
	}
	if s.next == nil {
		s.next = bitset.New(s.n)
	}
	nw, mw := s.next.Words(), s.member.Words()
	for _, v := range set {
		nw[v>>6] |= 1 << uint(v&63)
	}
	for i, w := range nw {
		for d := w ^ mw[i]; d != 0; d &= d - 1 {
			s.Flip(i<<6 + bits.TrailingZeros64(d))
		}
		nw[i] = 0
	}
}

// Contains reports whether v is currently a member of the candidate set.
func (s *Session) Contains(v int) bool { return s.member.Test(v) }

// IsAlive reports whether v is currently alive in the session's mask.
func (s *Session) IsAlive(v int) bool { return s.alive.Test(v) }

// Dominators returns v's exact current dominator count
// |N+[v] ∩ members ∩ alive|.
func (s *Session) Dominators(v int) int {
	s.checkNode(v)
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
	s.checkNode(v)
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
	s.checkNode(v)
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
	s.checkNode(v)
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
	for _, u := range s.g.Neighbors(v) {
		if !s.spare(int(u), in, kk, aw) {
			return false
		}
	}
	return true
}

// spare reports whether u stays covered after losing one dominator.
func (s *Session) spare(u, in int, k int32, aw []uint64) bool {
	return s.counts[u] > k || aw[u>>6]&(1<<uint(u&63)) == 0 ||
		(in >= 0 && (u == in || s.g.HasEdge(in, u)))
}

// contribute applies d (±1) to the dominator count of every node in v's
// closed neighborhood, maintaining the undominated set across the k
// threshold for alive nodes. O(deg(v)) words. The alive/undom words are
// hoisted out of the per-neighbor work so the inner bump is branch-light:
// this loop is the cost of a Flip.
func (s *Session) contribute(v int, d int32) {
	kk := int32(s.k)
	aw := s.alive.Words()
	uw := s.undom.Words()
	s.bump(v, d, kk, aw, uw)
	for _, u := range s.g.Neighbors(v) {
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
