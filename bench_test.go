// Package repro's root benchmark suite regenerates every experiment table
// of DESIGN.md under testing.B (BenchmarkExperiments, one sub-benchmark per
// experiment ID) and provides micro-benchmarks of the core algorithms. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benches use Quick mode with a single trial per point so a
// bench iteration is one full table; cmd/ltbench produces the full-scale
// tables recorded in EXPERIMENTS.md.
package repro

import (
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/domset"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/solver"
)

// BenchmarkExperiments regenerates every registered experiment table, one
// sub-benchmark per ID (E1 … E26): go test -bench 'Experiments/E7$'.
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{Seed: 42, Quick: true, Trials: 1}
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab, err := experiments.Run(id, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := tab.Render(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchGraph builds a connected-ish G(n, c·ln n/n) test graph outside the
// timed loop.
func benchGraph(n int) *graph.Graph {
	p := 10 * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	return gen.GNP(n, p, rng.New(uint64(n)))
}

func BenchmarkUniformAlgorithm(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := core.Uniform(g, 3, core.Options{K: 3, Src: src})
				if s.Lifetime() == 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

func BenchmarkGeneralAlgorithm(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		g := benchGraph(n)
		batteries := make([]int, n)
		bsrc := rng.New(2)
		for i := range batteries {
			batteries[i] = 1 + bsrc.Intn(8)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.General(g, batteries, core.Options{K: 3, Src: src})
			}
		})
	}
}

func BenchmarkFaultTolerantAlgorithm(b *testing.B) {
	g := benchGraph(1024)
	src := rng.New(1)
	for i := 0; i < b.N; i++ {
		core.FaultTolerant(g, 4, 2, core.Options{K: 3, Src: src})
	}
}

func BenchmarkScheduleValidate(b *testing.B) {
	g := benchGraph(1024)
	batteries := make([]int, g.N())
	for i := range batteries {
		batteries[i] = 3
	}
	s, err := solver.Solve(instance.New(g, batteries), solver.Spec{Name: solver.NameUniform},
		solver.Options{Tries: 10, Src: rng.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(g, batteries, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyDominatingSet(b *testing.B) {
	for _, n := range []int{256, 1024} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if set := domset.Greedy(g); set == nil {
					b.Fatal("greedy failed")
				}
			}
		})
	}
}

func BenchmarkGreedyPartition(b *testing.B) {
	g := benchGraph(512)
	for i := 0; i < b.N; i++ {
		domatic.GreedyPartition(g, domatic.GreedyExtractor)
	}
}

func BenchmarkRandomColoring(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := rng.New(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				domatic.RandomColoring(g, 3, src)
			}
		})
	}
}

func BenchmarkExactIntegral(b *testing.B) {
	g := gen.GNP(11, 0.4, rng.New(5))
	batteries := make([]int, g.N())
	for i := range batteries {
		batteries[i] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.Integral(g, batteries, 1)
	}
}

func BenchmarkMinimalDominatingSetEnumeration(b *testing.B) {
	g := gen.GNP(12, 0.35, rng.New(6))
	for i := 0; i < b.N; i++ {
		if sets := exact.MinimalDominatingSets(g, 1); len(sets) == 0 {
			b.Fatal("no sets")
		}
	}
}

func BenchmarkTwoHopMinDegree(b *testing.B) {
	g := benchGraph(4096)
	for i := 0; i < b.N; i++ {
		g.TwoHopMinDegree()
	}
}
