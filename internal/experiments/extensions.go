package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/solver"
)

func runE14(cfg Config) *Table {
	t := &Table{
		Header: []string{"n", "b_max", "k", "lifetime", "ratio", "ratio/ln(b_max·n)"},
	}
	root := rng.New(cfg.Seed + 14)
	n := 512
	if cfg.Quick {
		n = 128
	}
	p := 16 * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	for _, bMax := range []int{8, 32} {
		for _, k := range []int{1, 2, 3} {
			type sample struct {
				ratio, lifetime float64
				ok              bool
			}
			srcs := root.SplitN(cfg.trials())
			samples := mapTrials(cfg, "E14", cfg.trials(), func(i int) sample {
				src := srcs[i]
				g := gen.GNP(n, p, src)
				if g.MinDegree()+1 < k {
					return sample{}
				}
				b := make([]int, g.N())
				for j := range b {
					b[j] = 1 + src.Intn(bMax)
				}
				s := solve(solver.NameGeneralFT, g, b, k, 30, src.Split())
				if s.Lifetime() == 0 {
					return sample{}
				}
				ub := core.GeneralKTolerantUpperBound(g, b, k)
				return sample{
					ratio:    float64(ub) / float64(s.Lifetime()),
					lifetime: float64(s.Lifetime()),
					ok:       true,
				}
			})
			var ratios, lifetimes []float64
			for _, sm := range samples {
				if sm.ok {
					ratios = append(ratios, sm.ratio)
					lifetimes = append(lifetimes, sm.lifetime)
				}
			}
			if len(ratios) == 0 {
				continue
			}
			r := mean(ratios)
			norm := math.Log(float64(bMax) * float64(n))
			t.AddRow(itoa(n), itoa(bMax), itoa(k),
				f2(mean(lifetimes)), f2(r), f3(r/norm))
		}
	}
	t.Notes = append(t.Notes,
		"our extension beyond the paper: merge k consecutive Algorithm 2 slot classes into k-dominating phases",
		"the merge divides both the lifetime and the Lemma 6.1-style bound by k, so the measured ratio is",
		"independent of k and stays ≈ K·ln(b_max·n) — the same guarantee as the k=1 case (Theorem 5.3)")
	return t
}

func runE15(cfg Config) *Table {
	t := &Table{
		Header: []string{"family", "δ+1", "plain greedy sets", "constrained greedy sets", "gain"},
	}
	root := rng.New(cfg.Seed + 15)
	n := 300
	if cfg.Quick {
		n = 120
	}
	families := []family{
		{"udg uniform", func(n int, src *rng.Source) *graph.Graph {
			side := math.Sqrt(float64(n))
			g, _ := gen.RandomUDG(n, side, math.Sqrt(16*math.Log(float64(n))/math.Pi), src)
			return g
		}},
		{"udg clustered", func(n int, src *rng.Source) *graph.Graph {
			side := math.Sqrt(float64(n))
			g, _ := gen.ClusteredUDG(n, 5, side, side/8, math.Sqrt(16*math.Log(float64(n))/math.Pi), src)
			return g
		}},
		{"gnp", func(n int, src *rng.Source) *graph.Graph {
			return gen.GNP(n, 14*math.Log(float64(n))/float64(n), src)
		}},
	}
	for _, fam := range families {
		srcs := root.SplitN(cfg.trials())
		type sample struct{ plain, constrained, delta float64 }
		samples := mapTrials(cfg, "E15", cfg.trials(), func(i int) sample {
			g := fam.build(n, srcs[i])
			return sample{
				plain:       float64(len(domatic.GreedyPartition(g, domatic.GreedyExtractor))),
				constrained: float64(len(domatic.GreedyPartition(g, domatic.ConstrainedExtractor))),
				delta:       float64(g.MinDegree() + 1),
			}
		})
		var plain, constrained, deltas []float64
		for _, sm := range samples {
			plain = append(plain, sm.plain)
			constrained = append(constrained, sm.constrained)
			deltas = append(deltas, sm.delta)
		}
		p := mean(plain)
		c := mean(constrained)
		gain := 0.0
		if p > 0 {
			gain = c / p
		}
		t.AddRow(fam.name, f2(mean(deltas)), f2(p), f2(c), f2(gain))
	}
	t.Notes = append(t.Notes,
		"the scarcity-aware extractor (Slijepčević–Potkonjak style) reserves rare dominators for later sets",
		"negative result on benign families: plain greedy already operates near the δ+1 ceiling on UDGs, so",
		"scarcity-awareness adds little there; on adversarial supply (E7's trap) no extraction order survives")
	return t
}
