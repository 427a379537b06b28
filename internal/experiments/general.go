package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/solver"
)

func e4Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{64, 256}
	}
	return []int{64, 256, 1024}
}

func runE4(cfg Config) *Table {
	t := &Table{
		Header: []string{"n", "b_max", "UB (Lemma 5.1)", "lifetime", "ratio", "ratio/ln(b_max·n)"},
	}
	root := rng.New(cfg.Seed + 4)
	for _, n := range e4Sizes(cfg) {
		p := 10 * math.Log(float64(n)) / float64(n)
		if p > 1 {
			p = 1
		}
		for _, bMax := range []int{4, 16, 64} {
			type sample struct {
				ratio, lifetime, ub float64
				ok                  bool
			}
			srcs := root.SplitN(cfg.trials())
			samples := mapTrials(cfg, "E4", cfg.trials(), func(i int) sample {
				src := srcs[i]
				g := gen.GNP(n, p, src)
				b := make([]int, n)
				for j := range b {
					b[j] = 1 + src.Intn(bMax)
				}
				s := solve(solver.NameGeneral, g, b, 1, 30, src.Split())
				if s.Lifetime() == 0 {
					return sample{}
				}
				ub := core.GeneralUpperBound(g, b)
				return sample{
					ratio:    float64(ub) / float64(s.Lifetime()),
					lifetime: float64(s.Lifetime()),
					ub:       float64(ub),
					ok:       true,
				}
			})
			var ratios, lifetimes, ubs []float64
			for _, sm := range samples {
				if sm.ok {
					ratios = append(ratios, sm.ratio)
					lifetimes = append(lifetimes, sm.lifetime)
					ubs = append(ubs, sm.ub)
				}
			}
			if len(ratios) == 0 {
				continue
			}
			r := mean(ratios)
			norm := math.Log(float64(bMax) * float64(n))
			t.AddRow(itoa(n), itoa(bMax),
				f2(mean(ubs)),
				f2(mean(lifetimes)),
				f2(r), f3(r/norm))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: ratio bounded by O(log(b_max·n)); the normalized column stays near a constant",
		"for b_max polynomial in n this reduces to the O(log n) of the uniform case (paper, Theorem 5.3)")
	return t
}
