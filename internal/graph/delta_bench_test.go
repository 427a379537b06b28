package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

var sinkApplied *graph.Graph

// replacement is a PATCH delta of the service benchmark's patch-churn
// workload: remove v, and add a fresh node with patch-churn's battery of
// 10, wired to v's former neighbors.
func replacement(g *graph.Graph, v int) graph.Delta {
	n := g.N()
	d := graph.Delta{RemoveNodes: []int{v}, AddNodes: 1, NewBudgets: []int{10}}
	for _, u := range g.Neighbors(v) {
		nu := int(u)
		if nu > v {
			nu-- // survivors renumber compactly
		}
		d.AddEdges = append(d.AddEdges, [2]int{nu, n - 1})
	}
	return d
}

// BenchmarkDeltaApply times one node replacement on a graph of patch-churn's
// shape: a unit-disk graph with n = 512 and r = 0.09.
func BenchmarkDeltaApply(b *testing.B) {
	g, _ := gen.RandomUDG(512, 1, 0.09, rng.New(7))
	budgets := make([]int, g.N())
	d := replacement(g, g.N()/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g2, _, _, err := d.Apply(g, budgets)
		if err != nil {
			b.Fatal(err)
		}
		sinkApplied = g2
	}
}
