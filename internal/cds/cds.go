// Package cds explores the open problem the paper's conclusion poses:
// lifetime maximization for *connected* dominating sets (the structure
// routing backbones need). Growth builds one CDS with the Guha–Khuller-style
// greedy that grows a connected tree, always adding the frontier node
// covering the most uncovered nodes; GreedyConnectedPartition extracts
// disjoint CDSs with it until exhaustion. Experiment E11 measures how much
// lifetime the connectivity requirement costs; the paper conjectures the
// problem is fundamentally harder, and indeed the greedy connected partition
// consistently finds far fewer sets than the unconstrained one.
package cds

import (
	"sort"

	"repro/internal/domatic"
	"repro/internal/graph"
)

// Growth returns a connected dominating set of g built by greedy tree
// growth: seed at an allowed node of maximum degree, then repeatedly attach
// the allowed frontier node (neighbor of the current tree) that dominates
// the most not-yet-dominated nodes. Returns nil if g is not connected, has
// no nodes, or the allowed nodes cannot dominate g. allowed == nil allows
// every node.
func Growth(g *graph.Graph, allowed []bool) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	if n == 1 {
		if allowed == nil || allowed[0] {
			return []int{0}
		}
		return nil
	}
	if !g.Connected() {
		return nil
	}
	mayUse := func(v int) bool { return allowed == nil || allowed[v] }

	// Seed: allowed node with maximum degree.
	seed := -1
	for v := 0; v < n; v++ {
		if mayUse(v) && (seed == -1 || g.Degree(v) > g.Degree(seed)) {
			seed = v
		}
	}
	if seed == -1 {
		return nil
	}

	inTree := make([]bool, n)
	dominated := make([]bool, n)
	remaining := n
	addToTree := func(v int) {
		inTree[v] = true
		if !dominated[v] {
			dominated[v] = true
			remaining--
		}
		for _, u := range g.Neighbors(v) {
			if !dominated[u] {
				dominated[u] = true
				remaining--
			}
		}
	}
	addToTree(seed)
	tree := []int{seed}

	for remaining > 0 {
		// Frontier: allowed neighbors of the tree not yet in it.
		best, bestGain := -1, -1
		for _, tv := range tree {
			for _, u := range g.Neighbors(tv) {
				v := int(u)
				if inTree[v] || !mayUse(v) {
					continue
				}
				gain := 0
				if !dominated[v] {
					gain++
				}
				for _, w := range g.Neighbors(v) {
					if !dominated[w] {
						gain++
					}
				}
				if gain > bestGain || (gain == bestGain && v < best) {
					best, bestGain = v, gain
				}
			}
		}
		if best == -1 {
			return nil // frontier exhausted but nodes remain undominated
		}
		addToTree(best)
		tree = append(tree, best)
	}
	sort.Ints(tree)
	return tree
}

// GreedyConnectedPartition returns pairwise disjoint connected dominating
// sets, extracted with Growth until no further one exists — the natural
// greedy for the maximum connected-domatic partition the paper leaves open.
func GreedyConnectedPartition(g *graph.Graph) domatic.Partition {
	return domatic.GreedyPartition(g, Growth)
}
