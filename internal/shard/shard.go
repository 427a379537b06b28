// Package shard is the partition–solve–stitch subsystem: it cuts a graph
// into regions (geometric tiles for deployments with coordinates, seeded
// BFS/label-propagation regions for general graphs), solves every region's
// lifetime-scheduling instance independently — and concurrently — over the
// region plus a one-hop halo, and stitches the per-shard schedules back into
// one feasible whole-graph schedule, repairing cross-boundary coverage
// holes with heal's recruitment rule and escalating to sched.Replan on a
// shard only when recruitment fails.
//
// The decomposition follows the distributed k-dominating-set literature
// (Penso & Barbosa, arXiv:cs/0309040; the grid constructions of Fata,
// Smith & Sundaram): domination is a local property, so a region solved
// with its full one-hop context is correct everywhere except within one hop
// of a boundary, and those holes are exactly what a local recruitment pass
// repairs.
//
// Every shard carries a content-addressed fingerprint of its local solve
// instance — structure, owned/halo split, and local budgets hashed in local
// IDs — so the fingerprint is invariant under global renumbering. That is
// what makes a shard-schedule cache compositional: a graph.Delta that
// renumbers every surviving node still leaves untouched regions with
// byte-identical local instances, and their cached schedules hit without
// any invalidation protocol.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Shard is one region of a partition: the nodes it owns, the one-hop halo
// it solves with but does not own, and the induced local instance.
type Shard struct {
	// Index is the shard's stable identity within its partition. It
	// survives Rebase (a delta that empties other shards does not shift
	// it), so per-shard seed derivation and cache keys stay aligned across
	// graph deltas.
	Index int
	// Nodes holds the owned nodes in global IDs, sorted. Every node of the
	// partitioned graph is owned by exactly one shard.
	Nodes []int
	// Halo holds the non-owned neighbors of owned nodes in global IDs,
	// sorted. The local solve covers them (so owned nodes keep their full
	// closed neighborhoods), but the stitcher drops halo members from the
	// merged schedule — the owning shard serves them.
	Halo []int
	// Sub is the subgraph induced by Nodes followed by Halo: local IDs
	// 0..len(Nodes)-1 are owned, the rest are halo.
	Sub *graph.Graph
	// Orig maps local IDs back to global IDs (Nodes then Halo order).
	Orig []int
}

// Owned reports how many nodes the shard owns (local IDs below this are
// owned; at or above, halo).
func (s *Shard) Owned() int { return len(s.Nodes) }

// LocalBudgets maps the global budget vector into Sub's ID space, reusing
// dst when it has capacity.
func (s *Shard) LocalBudgets(budgets []int, dst []int) []int {
	dst = dst[:0]
	for _, v := range s.Orig {
		dst = append(dst, budgets[v])
	}
	return dst
}

// HashInto folds the shard's local solve instance — structure, owned/halo
// split, and local budgets — into h. Everything is hashed in local IDs, so
// the digest is invariant under global renumbering: two shards with
// isomorphic-by-construction local instances (same induced order) collide
// intentionally, which is what lets cached shard schedules survive a
// graph.Delta that renumbers the rest of the graph.
func (s *Shard) HashInto(h *graph.Hasher, budgets []int) {
	h.Graph("shard.sub", s.Sub)
	h.Int("shard.owned", len(s.Nodes))
	local := make([]int, 0, len(s.Orig))
	h.Ints("shard.budgets", s.LocalBudgets(budgets, local))
}

// Fingerprint returns the hex digest of the local solve instance under the
// given global budgets. This is the compositional cache identity of the
// shard; solver parameters are layered on top by the solve driver's Key.
func (s *Shard) Fingerprint(budgets []int) string {
	h := graph.NewHasher()
	s.HashInto(h, budgets)
	return h.Sum()
}

// Partition is a disjoint cover of one graph by shards.
type Partition struct {
	// Shards in position order. Positions are dense; Shard.Index values
	// are stable identities and may have gaps after a Rebase drops an
	// emptied shard.
	Shards []*Shard
	// Assign maps every global node to its owning shard's position in
	// Shards.
	Assign []int
}

// assemble builds a Partition from a node→label assignment. ids[label] is
// the stable Index for that label; labels with no nodes are dropped and the
// remaining shards keep their ids. assign is retargeted to positions.
func assemble(g *graph.Graph, assign []int, ids []int) *Partition {
	n := g.N()
	nodesOf := make([][]int, len(ids))
	for v := 0; v < n; v++ {
		l := assign[v]
		if l < 0 || l >= len(ids) {
			panic(fmt.Sprintf("shard: node %d assigned to label %d of %d", v, l, len(ids)))
		}
		nodesOf[l] = append(nodesOf[l], v) // ascending v ⇒ sorted
	}
	p := &Partition{Assign: make([]int, n)}
	inShard := make([]bool, n)
	inHalo := make([]bool, n)
	for l, nodes := range nodesOf {
		if len(nodes) == 0 {
			continue
		}
		pos := len(p.Shards)
		sh := &Shard{Index: ids[l], Nodes: nodes}
		for _, v := range nodes {
			inShard[v] = true
			p.Assign[v] = pos
		}
		for _, v := range nodes {
			for _, u := range g.Neighbors(v) {
				if !inShard[u] && !inHalo[u] {
					inHalo[u] = true
					sh.Halo = append(sh.Halo, int(u))
				}
			}
		}
		sort.Ints(sh.Halo)
		local := make([]int, 0, len(sh.Nodes)+len(sh.Halo))
		local = append(local, sh.Nodes...)
		local = append(local, sh.Halo...)
		sh.Sub, sh.Orig = g.InducedSubgraph(local)
		p.Shards = append(p.Shards, sh)
		for _, v := range nodes {
			inShard[v] = false // reset scratch for the next label
		}
		for _, h := range sh.Halo {
			inHalo[h] = false
		}
	}
	return p
}

// Whole returns the trivial one-shard partition (the whole graph, no halo).
// It makes the sharded code paths total: shards <= 1 degenerates to the
// whole-graph solve through the same pipeline.
func Whole(g *graph.Graph) *Partition {
	assign := make([]int, g.N())
	return assemble(g, assign, []int{0})
}

// Rebase maps p through a graph.Delta's old→new node mapping onto the
// post-delta graph g2: surviving nodes keep their shard, added nodes join
// the shard owning the plurality of their already-assigned neighbors (ties
// to the lower shard position; neighborless additions join the smallest
// shard), and halos, subgraphs, and fingerprints are rebuilt. Shard
// identities (Index) survive, so a delta confined to one tile leaves every
// other shard's fingerprint — and therefore its cached schedule — intact.
func (p *Partition) Rebase(g2 *graph.Graph, mapping []int) *Partition {
	if len(mapping) != len(p.Assign) {
		panic(fmt.Sprintf("shard: mapping for %d nodes against a partition of %d", len(mapping), len(p.Assign)))
	}
	n2 := g2.N()
	assign := make([]int, n2)
	for v := range assign {
		assign[v] = -1
	}
	for old, nw := range mapping {
		if nw >= 0 {
			assign[nw] = p.Assign[old]
		}
	}
	sizes := make([]int, len(p.Shards))
	for _, l := range assign {
		if l >= 0 {
			sizes[l]++
		}
	}
	counts := make([]int, len(p.Shards))
	for v := 0; v < n2; v++ {
		if assign[v] != -1 {
			continue
		}
		for i := range counts {
			counts[i] = 0
		}
		best := -1
		for _, u := range g2.Neighbors(v) {
			if l := assign[int(u)]; l >= 0 {
				counts[l]++
				if best == -1 || counts[l] > counts[best] || (counts[l] == counts[best] && l < best) {
					best = l
				}
			}
		}
		if best == -1 {
			best = smallest(sizes)
		}
		assign[v] = best
		sizes[best]++
	}
	ids := make([]int, len(p.Shards))
	for i, sh := range p.Shards {
		ids[i] = sh.Index
	}
	return assemble(g2, assign, ids)
}

// smallest returns the index of the minimum size, ties to the lower index.
func smallest(sizes []int) int {
	best := 0
	for i, s := range sizes {
		if s < sizes[best] {
			best = i
		}
	}
	return best
}

// validate checks the partition invariants tests and callers rely on:
// every node owned exactly once, assignments consistent, halos disjoint
// from owners.
func (p *Partition) validate(g *graph.Graph) error {
	owned := make([]int, g.N())
	for pos, sh := range p.Shards {
		for _, v := range sh.Nodes {
			owned[v]++
			if p.Assign[v] != pos {
				return fmt.Errorf("shard: node %d owned by position %d but assigned %d", v, pos, p.Assign[v])
			}
		}
		for _, h := range sh.Halo {
			if p.Assign[h] == pos {
				return fmt.Errorf("shard: node %d in both nodes and halo of position %d", h, pos)
			}
		}
	}
	for v, c := range owned {
		if c != 1 {
			return fmt.Errorf("shard: node %d owned by %d shards", v, c)
		}
	}
	return nil
}
