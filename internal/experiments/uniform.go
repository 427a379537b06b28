package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/solver"
)

// family is a named deterministic graph generator used by several sweeps.
type family struct {
	name  string
	build func(n int, src *rng.Source) *graph.Graph
}

func e2Families() []family {
	return []family{
		{"gnp", func(n int, src *rng.Source) *graph.Graph {
			p := 10 * math.Log(float64(n)) / float64(n)
			if p > 1 {
				p = 1
			}
			return gen.GNP(n, p, src)
		}},
		{"udg", func(n int, src *rng.Source) *graph.Graph {
			side := math.Sqrt(float64(n)) // density 1 node per unit area
			radius := math.Sqrt(10 * math.Log(float64(n)) / math.Pi)
			g, _ := gen.RandomUDG(n, side, radius, src)
			return g
		}},
		{"circulant", func(n int, src *rng.Source) *graph.Graph {
			d := 8 * int(math.Log(float64(n)))
			if d%2 == 1 {
				d++
			}
			if d >= n-1 {
				d = (n - 2) / 2 * 2
			}
			return gen.Circulant(n, d)
		}},
		{"hudg", func(n int, src *rng.Source) *graph.Graph {
			side := math.Sqrt(float64(n))
			rMax := math.Sqrt(16 * math.Log(float64(n)) / math.Pi)
			g, _, _ := gen.HeterogeneousUDG(n, side, rMax/2, rMax, src)
			return g
		}},
	}
}

func e2Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{64, 128, 256}
	}
	return []int{64, 128, 256, 512, 1024, 2048}
}

func runE2(cfg Config) *Table {
	t := &Table{
		Header: []string{"family", "n", "δ", "UB=b(δ+1)", "lifetime", "ratio", "ratio/ln n"},
	}
	const b = 3
	root := rng.New(cfg.Seed + 2)
	for _, fam := range e2Families() {
		for _, n := range e2Sizes(cfg) {
			type sample struct {
				ratio, lifetime, delta float64
				ok                     bool
			}
			srcs := root.SplitN(cfg.trials())
			samples := mapTrials(cfg, "E2", cfg.trials(), func(i int) sample {
				src := srcs[i]
				g := fam.build(n, src)
				budgets := energy.Uniform(g, b)
				s := solve(solver.NameUniform, g, budgets, 1, 30, src.Split())
				if s.Lifetime() == 0 {
					return sample{}
				}
				ub := core.GeneralUpperBound(g, budgets)
				return sample{
					ratio:    float64(ub) / float64(s.Lifetime()),
					lifetime: float64(s.Lifetime()),
					delta:    float64(g.MinDegree()),
					ok:       true,
				}
			})
			var ratios, lifetimes, deltas []float64
			for _, sm := range samples {
				if sm.ok {
					ratios = append(ratios, sm.ratio)
					lifetimes = append(lifetimes, sm.lifetime)
					deltas = append(deltas, sm.delta)
				}
			}
			if len(ratios) == 0 {
				continue
			}
			r := mean(ratios)
			l := mean(lifetimes)
			d := mean(deltas)
			t.AddRow(fam.name, itoa(n), f2(d), f2(float64(b)*(d+1)),
				f2(l), f2(r), f3(r/math.Log(float64(n))))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: ratio grows with n but ratio/ln n stays near a constant (≈ K = 3 plus rounding loss)")
	return t
}

func e3Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{128}
	}
	return []int{128, 512, 2048}
}

func runE3(cfg Config) *Table {
	t := &Table{
		Header: []string{"n", "K", "guaranteed classes", "P[all guaranteed classes dominate]", "mean valid prefix", "mean raw classes"},
	}
	root := rng.New(cfg.Seed + 3)
	trials := 4 * cfg.trials()
	for _, n := range e3Sizes(cfg) {
		p := 12 * math.Log(float64(n)) / float64(n)
		if p > 1 {
			p = 1
		}
		g := gen.GNP(n, p, root.Split())
		for _, k := range []float64{1, 2, 3} {
			guaranteed := domatic.GuaranteedClasses(g, k)
			srcs := root.SplitN(trials)
			type sample struct{ prefix, raw float64 }
			samples := mapTrials(cfg, "E3", trials, func(i int) sample {
				part := domatic.RandomColoring(g, k, srcs[i])
				return sample{
					prefix: float64(domatic.ValidPrefix(g, part)),
					raw:    float64(len(part)),
				}
			})
			success := 0
			var prefixes, raws []float64
			for _, sm := range samples {
				if int(sm.prefix) >= guaranteed {
					success++
				}
				prefixes = append(prefixes, sm.prefix)
				raws = append(raws, sm.raw)
			}
			t.AddRow(itoa(n), f2(k), itoa(guaranteed),
				pct(float64(success)/float64(trials)),
				f2(mean(prefixes)),
				f2(mean(raws)))
		}
	}
	t.Notes = append(t.Notes,
		"K=3 is the paper's analysis constant: success should approach 100% as n grows",
		"K=1 offers ~3× more raw classes but the guaranteed prefix fails more often")
	return t
}
