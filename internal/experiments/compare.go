package experiments

import (
	"math"

	"repro/internal/cds"
	"repro/internal/domatic"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/solver"
)

func runE6(cfg Config) *Table {
	t := &Table{
		Header: []string{"n", "b", "exact OPT", "LP OPT", "Alg1 (uniform)", "greedy partition", "naive all-on", "Alg1/OPT"},
	}
	root := rng.New(cfg.Seed + 6)
	// The exact branch-and-bound is exponential; n ≤ 12 with b = 2 keeps
	// every instance in the millisecond range while still separating the
	// algorithms.
	sizes := []int{10, 12}
	if cfg.Quick {
		sizes = []int{10}
	}
	const b = 2
	for _, n := range sizes {
		type sample struct {
			opt, lp, alg, greedy float64
			ok                   bool
		}
		srcs := root.SplitN(cfg.trials())
		samples := mapTrials(cfg, "E6", cfg.trials(), func(i int) sample {
			src := srcs[i]
			g := gen.GNP(n, 0.4, src)
			batteries := make([]int, n)
			for j := range batteries {
				batteries[j] = b
			}
			opt, _, _ := exact.Integral(g, batteries, 1)
			if opt == 0 {
				return sample{}
			}
			lpv, _, _, err := exact.Fractional(g, batteries, 1)
			if err != nil {
				return sample{}
			}
			s := solve(solver.NameUniform, g, batteries, 1, 30, src.Split())
			gp := domatic.GreedyPartition(g, domatic.GreedyExtractor)
			return sample{
				opt:    float64(opt),
				lp:     lpv,
				alg:    float64(s.Lifetime()),
				greedy: float64(len(gp) * b),
				ok:     true,
			}
		})
		var opts, lps, algs, greedys []float64
		for _, sm := range samples {
			if sm.ok {
				opts = append(opts, sm.opt)
				lps = append(lps, sm.lp)
				algs = append(algs, sm.alg)
				greedys = append(greedys, sm.greedy)
			}
		}
		if len(opts) == 0 {
			continue
		}
		o := mean(opts)
		a := mean(algs)
		t.AddRow(itoa(n), itoa(b), f2(o), f2(mean(lps)),
			f2(a), f2(mean(greedys)), itoa(b),
			f2(a/o))
	}
	t.Notes = append(t.Notes,
		"greedy partition × b is the centralized heuristic; Alg1 is distributed yet stays a constant fraction of OPT at these sizes",
		"naive all-on achieves exactly b — the baseline every schedule must beat")
	return t
}

func runE7(cfg Config) *Table {
	t := &Table{
		Header: []string{"k", "n", "domatic ≥ (planted)", "greedy-min sets", "greedy-setcover sets", "coloring valid classes", "greedy-min gap"},
	}
	ks := []int{3, 4, 5, 6, 8}
	if cfg.Quick {
		ks = []int{3, 4}
	}
	root := rng.New(cfg.Seed + 7)
	for _, k := range ks {
		g, planted := gen.FujitaTrap(k)
		greedyMin := domatic.GreedyPartition(g, domatic.MinimumExtractor)
		greedySC := domatic.GreedyPartition(g, domatic.GreedyExtractor)
		coloring := domatic.RandomColoring(g, 3, root.Split())
		valid := domatic.CountDominating(g, coloring)
		t.AddRow(itoa(k), itoa(g.N()), itoa(len(planted)), itoa(len(greedyMin)),
			itoa(len(greedySC)), itoa(valid),
			f2(float64(len(planted))/float64(len(greedyMin))))
	}
	t.Notes = append(t.Notes,
		"greedy-min always finds exactly 2 sets while the domatic number is k = Θ(√n): the Ω(√n) gap of Fujita's examples",
		"the coloring's Ω(δ/ln n) guarantee degrades to 1 class here (δ = k ≪ ln n on the trap) but never collapses adversarially")
	return t
}

func runE9(cfg Config) *Table {
	t := &Table{
		Header: []string{"family", "n", "δ+1", "(δ+1)/ln Δ", "planted/exact", "greedy sets", "coloring valid"},
	}
	root := rng.New(cfg.Seed + 9)
	n := 240
	if cfg.Quick {
		n = 120
	}
	for _, d := range []int{4, 8, 12} {
		g, planted := gen.PlantedDomatic(n, d, n/2, root.Split())
		greedy := domatic.GreedyPartition(g, domatic.GreedyExtractor)
		coloring := domatic.RandomColoring(g, 3, root.Split())
		t.AddRow("planted", itoa(n), itoa(domatic.UpperBound(g)),
			f2(domatic.FeigeLowerBound(g)), itoa(len(planted)),
			itoa(len(greedy)), itoa(domatic.CountDominating(g, coloring)))
	}
	for _, d := range []int{10, 20, 40} {
		g := gen.Circulant(n, d)
		greedy := domatic.GreedyPartition(g, domatic.GreedyExtractor)
		coloring := domatic.RandomColoring(g, 3, root.Split())
		t.AddRow("circulant", itoa(n), itoa(domatic.UpperBound(g)),
			f2(domatic.FeigeLowerBound(g)), "-",
			itoa(len(greedy)), itoa(domatic.CountDominating(g, coloring)))
	}
	// Small structured instances where the exact domatic number is
	// computable: the full window [(δ+1)/ln Δ, δ+1] with its exact point.
	smalls := []struct {
		name string
		g    *graph.Graph
	}{
		{"C9 (ring)", gen.Ring(9)},
		{"K7", gen.Complete(7)},
		{"hypercube d=3", gen.Hypercube(3)},
		{"K(3,3)", gen.CompleteBipartite(3, 3)},
	}
	for _, sm := range smalls {
		exactD := domatic.ExactDomaticNumber(sm.g)
		greedy := domatic.GreedyPartition(sm.g, domatic.GreedyExtractor)
		coloring := domatic.RandomColoring(sm.g, 3, root.Split())
		t.AddRow(sm.name, itoa(sm.g.N()), itoa(domatic.UpperBound(sm.g)),
			f2(domatic.FeigeLowerBound(sm.g)), itoa(exactD),
			itoa(len(greedy)), itoa(domatic.CountDominating(sm.g, coloring)))
	}
	t.Notes = append(t.Notes,
		"every partition size lies in [(1-o(1))(δ+1)/ln Δ, δ+1] (Feige et al.)",
		"greedy tracks δ+1 closely on benign graphs; the coloring pays the K·ln n factor")
	return t
}

func runE11(cfg Config) *Table {
	t := &Table{
		Header: []string{"n", "avg deg", "plain greedy sets", "connected greedy sets", "plain lifetime", "CDS lifetime", "cost factor"},
	}
	root := rng.New(cfg.Seed + 11)
	sizes := []int{100, 200}
	if cfg.Quick {
		sizes = []int{80}
	}
	const b = 3
	for _, n := range sizes {
		type sample struct {
			plain, conn float64
			ok          bool
		}
		srcs := root.SplitN(cfg.trials())
		samples := mapTrials(cfg, "E11", cfg.trials(), func(i int) sample {
			side := math.Sqrt(float64(n))
			radius := math.Sqrt(14 * math.Log(float64(n)) / math.Pi)
			g, _ := gen.RandomUDG(n, side, radius, srcs[i])
			if !g.Connected() {
				return sample{}
			}
			return sample{
				plain: float64(len(domatic.GreedyPartition(g, domatic.GreedyExtractor))),
				conn:  float64(len(cds.GreedyConnectedPartition(g))),
				ok:    true,
			}
		})
		var plainSets, cdsSets []float64
		for _, sm := range samples {
			if sm.ok {
				plainSets = append(plainSets, sm.plain)
				cdsSets = append(cdsSets, sm.conn)
			}
		}
		if len(plainSets) == 0 {
			continue
		}
		p := mean(plainSets)
		c := mean(cdsSets)
		cost := math.Inf(1)
		if c > 0 {
			cost = p / c
		}
		t.AddRow(itoa(n), "~14 ln n", f2(p), f2(c),
			f2(p*b), f2(c*b), f2(cost))
	}
	t.Notes = append(t.Notes,
		"connectivity is a real constraint: each CDS needs Ω(diameter) nodes, so fewer disjoint ones fit",
		"the paper leaves approximation of the connected variant open; this table quantifies the greedy gap")
	return t
}
