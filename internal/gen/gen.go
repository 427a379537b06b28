// Package gen constructs the graph families used by the experiments:
// Erdős–Rényi G(n,p) graphs, the unit disk graphs the paper's wireless model
// motivates, structured graphs (grids, rings, stars) for unit tests, and two
// purpose-built families:
//
//   - FujitaTrap: a family on which the greedy domatic-partition algorithm
//     (repeatedly extract a minimum dominating set) obtains only 2 disjoint
//     dominating sets while the domatic number is Θ(√n) — an explicit
//     witness of the Ω(√n) greedy lower bound the paper cites from Fujita.
//   - PlantedDomatic: graphs shipped with a certified domatic partition of a
//     chosen size, used to validate partition algorithms against a known
//     lower bound.
//
// Every generator collects its edge list and builds through
// graph.NewFromEdges, so a generator bug that emits a self-loop or a repeated
// pair panics instead of being deduplicated away.
package gen

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
)

// GNP returns an Erdős–Rényi graph G(n, p): every pair is an edge
// independently with probability p.
func GNP(n int, p float64, src *rng.Source) *graph.Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: probability %v out of [0,1]", p))
	}
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return graph.NewFromEdges(n, edges)
}

// UDG returns the unit disk graph of the given points at the given
// communication radius: {u,v} is an edge iff dist(u,v) <= radius.
func UDG(pts []geom.Point, radius float64) *graph.Graph {
	if len(pts) == 0 {
		return graph.New(0)
	}
	idx := geom.NewGridIndex(pts, radius)
	var edges [][2]int
	for u := range pts {
		for _, v := range idx.Within(u) {
			if int32(u) < v {
				edges = append(edges, [2]int{u, int(v)})
			}
		}
	}
	return graph.NewFromEdges(len(pts), edges)
}

// RandomUDG scatters n nodes uniformly in a side×side square and returns
// their unit disk graph at the given radius, along with the points (for
// visualization and the sensing-coverage example).
func RandomUDG(n int, side, radius float64, src *rng.Source) (*graph.Graph, []geom.Point) {
	pts := geom.UniformDeployment(n, side, src)
	return UDG(pts, radius), pts
}

// HeterogeneousUDG scatters n nodes uniformly in a side×side square, draws
// each node's radio range uniformly from [rMin, rMax], and returns the
// *symmetric* communication graph: {u,v} is an edge iff each can hear the
// other, dist(u,v) ≤ min(r_u, r_v). This realizes the paper's §2 assumption
// that links are bidirectional (unidirectional links being "costly", per the
// cited Prakash result) on physically heterogeneous radios. The per-node
// ranges are also returned.
func HeterogeneousUDG(n int, side, rMin, rMax float64, src *rng.Source) (*graph.Graph, []geom.Point, []float64) {
	if rMin <= 0 || rMax < rMin {
		panic(fmt.Sprintf("gen: invalid radius range [%v, %v]", rMin, rMax))
	}
	pts := geom.UniformDeployment(n, side, src)
	radii := make([]float64, n)
	for i := range radii {
		radii[i] = rMin + src.Float64()*(rMax-rMin)
	}
	if n == 0 {
		return graph.New(0), pts, radii
	}
	idx := geom.NewGridIndex(pts, rMax)
	var edges [][2]int
	for u := 0; u < n; u++ {
		for _, v := range idx.Within(u) {
			if int32(u) < v {
				r := radii[u]
				if radii[v] < r {
					r = radii[v]
				}
				if pts[u].Dist(pts[v]) <= r {
					edges = append(edges, [2]int{u, int(v)})
				}
			}
		}
	}
	return graph.NewFromEdges(n, edges), pts, radii
}

// ClusteredUDG deploys n nodes around k Gaussian clusters and returns their
// unit disk graph: the irregular-degree regime for the 2-hop ablation.
func ClusteredUDG(n, k int, side, sigma, radius float64, src *rng.Source) (*graph.Graph, []geom.Point) {
	pts := geom.ClusteredDeployment(n, k, side, sigma, src)
	return UDG(pts, radius), pts
}

// Path returns the path graph 0-1-…-(n-1).
func Path(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return graph.NewFromEdges(n, edges)
}

// Ring returns the cycle graph C_n. It panics for n in {1, 2}, which have no
// simple cycle.
func Ring(n int) *graph.Graph {
	if n == 1 || n == 2 {
		panic("gen: no simple cycle on 1 or 2 nodes")
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return graph.NewFromEdges(n, edges)
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *graph.Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return graph.NewFromEdges(n, edges)
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return graph.NewFromEdges(n, edges)
}

// Grid returns the rows×cols grid graph with 4-neighborhoods.
func Grid(rows, cols int) *graph.Graph {
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return graph.NewFromEdges(rows*cols, edges)
}

// Torus returns the rows×cols torus (grid with wraparound). Both dimensions
// must be at least 3 so the wrap edges stay simple.
func Torus(rows, cols int) *graph.Graph {
	if rows < 3 || cols < 3 {
		panic("gen: torus needs rows, cols >= 3")
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges, [2]int{id(r, c), id(r, (c+1)%cols)})
			edges = append(edges, [2]int{id(r, c), id((r+1)%rows, c)})
		}
	}
	return graph.NewFromEdges(rows*cols, edges)
}

// RandomTree returns a uniform random labeled tree on n nodes built from a
// random Prüfer sequence.
func RandomTree(n int, src *rng.Source) *graph.Graph {
	if n <= 1 {
		return graph.New(n)
	}
	if n == 2 {
		return graph.NewFromEdges(2, [][2]int{{0, 1}})
	}
	pruefer := make([]int, n-2)
	for i := range pruefer {
		pruefer[i] = src.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range pruefer {
		degree[v]++
	}
	// Repeatedly attach the smallest leaf to the next sequence element.
	edges := make([][2]int, 0, n-1)
	used := make([]bool, n)
	for _, v := range pruefer {
		for leaf := 0; leaf < n; leaf++ {
			if degree[leaf] == 1 && !used[leaf] {
				edges = append(edges, [2]int{leaf, v})
				used[leaf] = true
				degree[v]--
				break
			}
		}
	}
	// Two leaves remain; join them.
	u := -1
	for v := 0; v < n; v++ {
		if degree[v] == 1 && !used[v] {
			if u == -1 {
				u = v
			} else {
				edges = append(edges, [2]int{u, v})
				break
			}
		}
	}
	return graph.NewFromEdges(n, edges)
}

// Hypercube returns the d-dimensional hypercube graph on 2^d nodes: i and j
// are adjacent iff they differ in exactly one bit. d-regular with diameter
// d; a classic structured family for partition algorithms.
func Hypercube(d int) *graph.Graph {
	if d < 0 || d > 20 {
		panic(fmt.Sprintf("gen: hypercube dimension %d out of [0, 20]", d))
	}
	n := 1 << d
	var edges [][2]int
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				edges = append(edges, [2]int{v, u})
			}
		}
	}
	return graph.NewFromEdges(n, edges)
}

// CompleteBipartite returns K_{a,b}: parts {0..a-1} and {a..a+b-1} with all
// cross edges. Its domatic number is min(a, b) for a, b >= 2 (disjoint
// cross pairs; any dominating set needs two nodes) and 2 when min(a, b) = 1
// (the star) — useful exact reference points, verified in the tests.
func CompleteBipartite(a, b int) *graph.Graph {
	if a < 0 || b < 0 {
		panic("gen: negative part size")
	}
	var edges [][2]int
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return graph.NewFromEdges(a+b, edges)
}

// Circulant returns the circulant graph on n nodes where node i is adjacent
// to i±1, …, i±(d/2) (mod n): a deterministic d-regular graph for even d
// that scales to any size. Requires even d with 0 <= d <= n-1; the offsets
// are then distinct (d/2 ≤ (n-1)/2 < n/2), so no pair is listed twice.
func Circulant(n, d int) *graph.Graph {
	if d < 0 || d%2 != 0 {
		panic(fmt.Sprintf("gen: circulant degree %d must be even and non-negative", d))
	}
	if d >= n {
		panic(fmt.Sprintf("gen: circulant degree %d infeasible for n=%d", d, n))
	}
	var edges [][2]int
	for off := 1; off <= d/2; off++ {
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + off) % n})
		}
	}
	return graph.NewFromEdges(n, edges)
}

// Caterpillar returns a caterpillar: a spine path of the given length with
// legs pendant leaves attached to every spine node. Minimum degree 1 makes
// it a stress case for lifetime scheduling (leaves can only be dominated by
// themselves or their single spine neighbor).
func Caterpillar(spine, legs int) *graph.Graph {
	if spine < 1 || legs < 0 {
		panic("gen: caterpillar needs spine >= 1 and legs >= 0")
	}
	var edges [][2]int
	for i := 0; i+1 < spine; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			edges = append(edges, [2]int{i, next})
			next++
		}
	}
	return graph.NewFromEdges(spine+spine*legs, edges)
}
