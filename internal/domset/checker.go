package domset

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Checker is the allocation-free domination kernel. It holds word-packed
// closed-neighborhood rows of one graph plus reusable scratch buffers, so
// the per-call coverage decisions that dominate the simulator's hot loops —
// one per slot, per trial, per sweep point — cost zero allocations and run
// as word-wide OR/AND/popcount passes instead of per-node adjacency walks.
//
// The coverage computation is bit-sliced counting: levels[i] is the set of
// nodes with at least i+1 dominators, updated per candidate row with the
// classic carry chain (new carry = level AND row; level OR= row). After all
// candidates are folded in, levels[k-1] is exactly the k-dominated set and
// every query (IsKDominating, CoveredCount, DominatorDeficit, the
// undominated list) is a masked popcount or bit iteration over it.
//
// A Checker is NOT safe for concurrent use: every call rewrites the shared
// scratch. Use one Checker per goroutine (they are cheap relative to the
// executions they serve).
//
// NewChecker precomputes the dense rows in O(n²/64) words of memory —
// 2 MiB for n = 4096 — which is what buys the speed. The free functions of
// this package wrap a rowless sparse checker instead, preserving their old
// one-shot cost profile.
type Checker struct {
	g      *graph.Graph
	n      int
	stride int // words per row

	rows []uint64 // n*stride packed closed neighborhoods; nil in sparse mode

	in     *bitset.Set   // scratch: alive candidate membership (dedup + sparse walk)
	carry  []uint64      // scratch: carry chain of the current row
	levels []*bitset.Set // levels[i]: nodes with >= i+1 dominators; grown on demand
	alive  *bitset.Set   // scratch: packed alive mask
	full   *bitset.Set   // constant: all n bits set

	session *Session // the reusable incremental session; lazily built by Begin
}

// NewChecker returns a dense Checker for g with precomputed packed
// closed-neighborhood rows.
func NewChecker(g *graph.Graph) *Checker {
	c := newSparseChecker(g)
	c.rows = make([]uint64, c.n*c.stride)
	c.carry = make([]uint64, c.stride)
	for v := 0; v < c.n; v++ {
		row := c.rows[v*c.stride : (v+1)*c.stride]
		row[v>>6] |= 1 << uint(v&63)
		for _, u := range g.Neighbors(v) {
			row[u>>6] |= 1 << uint(u&63)
		}
	}
	return c
}

// NewSparseChecker returns a rowless Checker that answers queries by
// walking adjacency lists instead of folding precomputed rows. Sessions
// run entirely on adjacency walks, so a sparse Checker is the right host
// when the caller only wants Begin/Flip incrementality (the grid solver
// keeps five of them) and the O(n²/64) row build plus its memclr would
// dominate the work the checker actually does.
func NewSparseChecker(g *graph.Graph) *Checker { return newSparseChecker(g) }

// newSparseChecker returns a rowless Checker that answers queries by walking
// adjacency lists (the pre-kernel strategy, minus the per-call allocation).
// The free functions of this package use it for one-shot queries where
// building dense rows would cost more than the query itself.
func newSparseChecker(g *graph.Graph) *Checker {
	n := g.N()
	c := &Checker{
		g:      g,
		n:      n,
		stride: bitset.WordsFor(n),
		in:     bitset.New(n),
		alive:  bitset.New(n),
		full:   bitset.New(n),
	}
	c.full.Fill()
	return c
}

// Graph returns the graph the Checker was built for.
func (c *Checker) Graph() *graph.Graph { return c.g }

func (c *Checker) checkNode(v int) {
	if v < 0 || v >= c.n {
		panic(fmt.Sprintf("domset: node %d out of range", v))
	}
}

// checkAlive enforces the alive-mask contract every query shares: nil means
// all nodes alive, and a non-nil mask carries exactly one flag per node. A
// short or long slice used to surface as a bare index-out-of-range somewhere
// inside the fold; now it fails fast with an actionable message.
func (c *Checker) checkAlive(alive []bool) {
	if alive != nil && len(alive) != c.n {
		panic(fmt.Sprintf("domset: %d alive flags for %d nodes", len(alive), c.n))
	}
}

// aliveMask packs alive into the scratch mask and returns it; a nil alive
// means all nodes and returns the precomputed full mask.
func (c *Checker) aliveMask(alive []bool) *bitset.Set {
	if alive == nil {
		return c.full
	}
	c.alive.Reset()
	words := c.alive.Words()
	for v := 0; v < c.n; v++ {
		if alive[v] {
			words[v>>6] |= 1 << uint(v&63)
		}
	}
	return c.alive
}

// fold computes levels[0..k-1] for the given candidate set: levels[i] ends
// up holding exactly the nodes with at least i+1 alive dominators in their
// closed neighborhood. Duplicate members collapse (a set is a set) and dead
// members are skipped, matching the free functions' contract. Dense mode
// only.
func (c *Checker) fold(set []int, k int, alive []bool) {
	for len(c.levels) < k {
		c.levels = append(c.levels, bitset.New(c.n))
	}
	for _, lv := range c.levels[:k] {
		lv.Reset()
	}
	c.in.Reset()
	stride := c.stride
	carry := c.carry
	for _, v := range set {
		c.checkNode(v)
		if (alive != nil && !alive[v]) || c.in.Test(v) {
			continue
		}
		c.in.Set(v)
		row := c.rows[v*stride : (v+1)*stride]
		if k == 1 {
			// Fast path: one OR pass per candidate row.
			lw := c.levels[0].Words()
			for w := 0; w < stride; w++ {
				lw[w] |= row[w]
			}
			continue
		}
		copy(carry, row)
		for i := 0; i < k; i++ {
			lw := c.levels[i].Words()
			var pending uint64
			for w := 0; w < stride; w++ {
				t := lw[w] & carry[w]
				lw[w] |= carry[w]
				carry[w] = t
				pending |= t
			}
			if pending == 0 {
				break
			}
		}
	}
}

// fillMembership loads the candidate set into the scratch membership bitset
// (range-checked, alive-filtered, deduplicated). Shared by the sparse paths.
func (c *Checker) fillMembership(set []int, alive []bool) {
	c.in.Reset()
	for _, v := range set {
		c.checkNode(v)
		if alive == nil || alive[v] {
			c.in.Set(v)
		}
	}
}

// dominators returns |N+[v] ∩ set| capped at cap, walking the adjacency
// list with early exit. Sparse mode helper.
func (c *Checker) dominators(v, cap int) int {
	count := 0
	if c.in.Test(v) {
		count++
	}
	if count >= cap {
		return count
	}
	for _, u := range c.g.Neighbors(v) {
		if c.in.Test(int(u)) {
			count++
			if count >= cap {
				break
			}
		}
	}
	return count
}

// IsKDominating reports whether every alive node has at least k alive
// dominators from set in its closed neighborhood. Contract identical to the
// free IsKDominating, with zero allocations in steady state. alive is nil
// (all nodes) or exactly one flag per node.
func (c *Checker) IsKDominating(set []int, k int, alive []bool) bool {
	c.checkAlive(alive)
	if k < 1 {
		// Matches the free function: a demand of zero dominators is always met.
		for _, v := range set {
			c.checkNode(v)
		}
		return true
	}
	if c.rows == nil {
		c.fillMembership(set, alive)
		for v := 0; v < c.n; v++ {
			if alive != nil && !alive[v] {
				continue
			}
			if c.dominators(v, k) < k {
				return false
			}
		}
		return true
	}
	c.fold(set, k, alive)
	return c.aliveMask(alive).SubsetOf(c.levels[k-1])
}

// CoveredCount returns how many alive nodes have at least k alive dominators
// from set in their closed neighborhood. alive is nil (all nodes) or
// exactly one flag per node.
func (c *Checker) CoveredCount(set []int, k int, alive []bool) int {
	c.checkAlive(alive)
	if k < 1 {
		for _, v := range set {
			c.checkNode(v)
		}
		return c.aliveMask(alive).Count()
	}
	if c.rows == nil {
		c.fillMembership(set, alive)
		covered := 0
		for v := 0; v < c.n; v++ {
			if alive != nil && !alive[v] {
				continue
			}
			if c.dominators(v, k) >= k {
				covered++
			}
		}
		return covered
	}
	c.fold(set, k, alive)
	return c.aliveMask(alive).AndCount(c.levels[k-1])
}

// DominatorDeficit returns the total number of missing dominator slots:
// Σ over alive v of max(0, k - |N+[v] ∩ set ∩ alive|). Zero iff set is
// k-dominating. alive is nil (all nodes) or exactly one flag per node.
func (c *Checker) DominatorDeficit(set []int, k int, alive []bool) int {
	c.checkAlive(alive)
	if k < 1 {
		for _, v := range set {
			c.checkNode(v)
		}
		return 0
	}
	if c.rows == nil {
		c.fillMembership(set, alive)
		deficit := 0
		for v := 0; v < c.n; v++ {
			if alive != nil && !alive[v] {
				continue
			}
			if d := c.dominators(v, k); d < k {
				deficit += k - d
			}
		}
		return deficit
	}
	c.fold(set, k, alive)
	am := c.aliveMask(alive)
	deficit := 0
	for _, lv := range c.levels[:k] {
		deficit += am.AndNotCount(lv)
	}
	return deficit
}

// AppendUndominated appends the sorted alive nodes with fewer than k
// dominators to dst and returns the extended slice. Callers reuse one
// backing array across calls (dst[:0]) for an allocation-free hole scan.
// alive is nil (all nodes) or exactly one flag per node.
func (c *Checker) AppendUndominated(dst []int, set []int, k int, alive []bool) []int {
	c.checkAlive(alive)
	if k < 1 {
		for _, v := range set {
			c.checkNode(v)
		}
		return dst
	}
	if c.rows == nil {
		c.fillMembership(set, alive)
		for v := 0; v < c.n; v++ {
			if alive != nil && !alive[v] {
				continue
			}
			if c.dominators(v, k) < k {
				dst = append(dst, v)
			}
		}
		return dst
	}
	c.fold(set, k, alive)
	am := c.aliveMask(alive).Words()
	top := c.levels[k-1].Words()
	for wi, w := range am {
		for m := w &^ top[wi]; m != 0; m &= m - 1 {
			dst = append(dst, wi<<6+bits.TrailingZeros64(m))
		}
	}
	return dst
}
