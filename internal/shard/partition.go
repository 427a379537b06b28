package shard

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Geometric partitions a deployment with known coordinates into an
// r×c grid of tiles covering the bounding box, r*c >= shards, assigning
// each node to the tile containing its point (overflow tiles beyond the
// requested count clamp to the last shard). UDG and grid instances cut this
// way have short boundaries — edges only cross between adjacent tiles — so
// the stitcher's repair work concentrates on thin seams. Tiles that catch
// no nodes are dropped. The result is deterministic in (pts, shards).
func Geometric(g *graph.Graph, pts []geom.Point, shards int) (*Partition, error) {
	n := g.N()
	if len(pts) != n {
		return nil, fmt.Errorf("shard: %d points for %d nodes", len(pts), n)
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: %d shards requested, need >= 1", shards)
	}
	// Surplus shards would own no nodes. The empty graph takes the one-shard
	// path and gets the whole partition, which has no shards.
	shards = min(shards, max(n, 1))
	if shards == 1 {
		return Whole(g), nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(shards))))
	rows := (shards + cols - 1) / cols
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := pts[0].X, pts[0].Y
	for _, p := range pts[1:] {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	assign := make([]int, n)
	for v, p := range pts {
		col, row := 0, 0
		if w > 0 {
			col = int((p.X - minX) / w * float64(cols))
			if col >= cols {
				col = cols - 1
			}
		}
		if h > 0 {
			row = int((p.Y - minY) / h * float64(rows))
			if row >= rows {
				row = rows - 1
			}
		}
		tile := row*cols + col
		if tile >= shards {
			tile = shards - 1
		}
		assign[v] = tile
	}
	ids := make([]int, shards)
	for i := range ids {
		ids[i] = i
	}
	return assemble(g, assign, ids), nil
}

// BFS partitions a general graph into the requested number of regions with
// no coordinates: farthest-point seeding (the first seed drawn from the
// given seed, each later seed the node maximizing BFS distance to the seeds
// so far, unreached components first), balanced multi-source BFS growth,
// and two label-propagation smoothing sweeps that let boundary nodes defect
// to a plurality-neighbor shard without emptying their own. Components no
// seed reached join the smallest shard wholesale. Deterministic in
// (g, shards, seed): same inputs, same partition, byte for byte.
func BFS(g *graph.Graph, shards int, seed uint64) (*Partition, error) {
	n := g.N()
	if shards < 1 {
		return nil, fmt.Errorf("shard: %d shards requested, need >= 1", shards)
	}
	// Surplus shards would own no nodes. The empty graph takes the one-shard
	// path and gets the whole partition, which has no shards.
	shards = min(shards, max(n, 1))
	if shards == 1 {
		return Whole(g), nil
	}

	src := rng.New(seed)
	seeds := make([]int, 0, shards)
	seeds = append(seeds, src.Intn(n))
	// minDist[v] = min over chosen seeds of hop distance; -1 = unreached.
	minDist := g.BFS(seeds[0])
	for len(seeds) < shards {
		next, nextDist := -1, -1
		for v := 0; v < n; v++ {
			d := minDist[v]
			if d == 0 {
				continue // already a seed or co-located
			}
			// Unreached nodes (foreign components) outrank any finite
			// distance; among equals the lower ID wins.
			better := false
			switch {
			case next == -1:
				better = true
			case d == -1 && nextDist != -1:
				better = true
			case d != -1 && nextDist != -1 && d > nextDist:
				better = true
			}
			if better {
				next, nextDist = v, d
			}
		}
		if next == -1 {
			break // fewer distinct positions than shards
		}
		seeds = append(seeds, next)
		for v, d := range g.BFS(next) {
			if d != -1 && (minDist[v] == -1 || d < minDist[v]) {
				minDist[v] = d
			}
		}
	}

	// Balanced multi-source growth: one frontier per seed, expanded
	// smallest-shard-first so no region starves behind a hub seed.
	assign := make([]int, n)
	for v := range assign {
		assign[v] = -1
	}
	sizes := make([]int, len(seeds))
	frontiers := make([][]int, len(seeds))
	for l, s := range seeds {
		assign[s] = l
		sizes[l] = 1
		frontiers[l] = []int{s}
	}
	for {
		grew := false
		// Expansion order: smallest shard first, ties to the lower label.
		order := make([]int, 0, len(seeds))
		for l := range seeds {
			if len(frontiers[l]) > 0 {
				order = append(order, l)
			}
		}
		if len(order) == 0 {
			break
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0; j-- {
				a, b := order[j-1], order[j]
				if sizes[b] < sizes[a] || (sizes[b] == sizes[a] && b < a) {
					order[j-1], order[j] = b, a
				} else {
					break
				}
			}
		}
		for _, l := range order {
			var next []int
			for _, v := range frontiers[l] {
				for _, u := range g.Neighbors(v) {
					if assign[u] == -1 {
						assign[u] = l
						sizes[l]++
						next = append(next, int(u))
						grew = true
					}
				}
			}
			frontiers[l] = next
		}
		if !grew {
			break
		}
	}
	// Components no seed reached: each joins the currently smallest shard.
	for _, comp := range g.Components() {
		if assign[comp[0]] != -1 {
			continue
		}
		l := smallest(sizes)
		for _, v := range comp {
			assign[v] = l
		}
		sizes[l] += len(comp)
	}

	// Label-propagation smoothing: a node defects to a strict-plurality
	// neighbor label (ties keep the incumbent) unless that would empty its
	// shard. Two sweeps straighten the ragged BFS boundaries.
	counts := make([]int, len(seeds))
	for sweep := 0; sweep < 2; sweep++ {
		for v := 0; v < n; v++ {
			cur := assign[v]
			if sizes[cur] <= 1 {
				continue
			}
			for i := range counts {
				counts[i] = 0
			}
			for _, u := range g.Neighbors(v) {
				counts[assign[u]]++
			}
			// Ascending scan with strict > keeps the incumbent on ties and
			// prefers the lower label among equal challengers.
			best := cur
			for l := range counts {
				if counts[l] > counts[best] {
					best = l
				}
			}
			if best != cur {
				assign[v] = best
				sizes[cur]--
				sizes[best]++
			}
		}
	}

	ids := make([]int, len(seeds))
	for i := range ids {
		ids[i] = i
	}
	return assemble(g, assign, ids), nil
}

// Partitioners lists the partitioner names accepted by ByName.
func Partitioners() []string { return []string{"bfs", "geom"} }

// ByName resolves a partitioner by name. "geom" requires coordinates (pts
// non-nil); "bfs" works on any graph. An empty name defaults to "bfs", the
// coordinate-free choice the service and the CLIs can always run.
func ByName(name string, g *graph.Graph, pts []geom.Point, shards int, seed uint64) (*Partition, error) {
	switch name {
	case "", "bfs":
		return BFS(g, shards, seed)
	case "geom":
		if pts == nil {
			return nil, fmt.Errorf("shard: the geom partitioner needs node coordinates (edge-list inputs have none; use bfs)")
		}
		return Geometric(g, pts, shards)
	default:
		return nil, fmt.Errorf("shard: unknown partitioner %q (have %v)", name, Partitioners())
	}
}
