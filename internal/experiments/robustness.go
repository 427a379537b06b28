package experiments

import (
	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/energy"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/solver"
)

func runE20(cfg Config) *Table {
	t := &Table{
		Header: []string{"n", "k", "exact OPT", "Lemma 6.1 bound", "Alg3 lifetime", "Alg3/OPT"},
	}
	root := rng.New(cfg.Seed + 20)
	n := 11
	if cfg.Quick {
		n = 9
	}
	const b = 2
	for _, k := range []int{1, 2} {
		srcs := root.SplitN(cfg.trials())
		type sample struct {
			opt, alg, bound float64
			ok              bool
		}
		samples := mapTrials(cfg, "E20", cfg.trials(), func(i int) sample {
			src := srcs[i]
			g := gen.GNP(n, 0.5, src)
			if g.MinDegree()+1 < k {
				return sample{}
			}
			batteries := energy.Uniform(g, b)
			opt, _, _ := exact.Integral(g, batteries, k)
			if opt == 0 {
				return sample{}
			}
			s := solve(solver.NameFT, g, batteries, k, 30, src.Split())
			return sample{
				opt:   float64(opt),
				alg:   float64(s.Lifetime()),
				bound: float64(core.GeneralKTolerantUpperBound(g, batteries, k)),
				ok:    true,
			}
		})
		var opts, algs, bounds []float64
		for _, sm := range samples {
			if sm.ok {
				opts = append(opts, sm.opt)
				algs = append(algs, sm.alg)
				bounds = append(bounds, sm.bound)
			}
		}
		if len(opts) == 0 {
			continue
		}
		o := mean(opts)
		a := mean(algs)
		t.AddRow(itoa(n), itoa(k), f2(o), f2(mean(bounds)),
			f2(a), f2(a/o))
	}
	t.Notes = append(t.Notes,
		"exact optimum from minimal k-dominating set enumeration + branch and bound",
		"Lemma 6.1's bound b(δ+1)/k over-estimates the true optimum noticeably at k=2 on small graphs,",
		"so the measured Alg3/OPT fraction is fairer to the algorithm than ratio-vs-bound columns")
	return t
}

func runE21(cfg Config) *Table {
	t := &Table{
		Header: []string{"loss", "valid prefix classes", "vs lossless", "dropped msgs"},
	}
	root := rng.New(cfg.Seed + 21)
	n := 400
	if cfg.Quick {
		n = 150
	}
	const b = 3
	g := gen.GNP(n, 0.2, root.Split())
	baselinePrefix := func() float64 {
		srcs := root.SplitN(cfg.trials())
		vals := mapTrials(cfg, "E21", cfg.trials(), func(i int) float64 {
			nodes := distsim.NewUniformNodes(g, 3, srcs[i].SplitN(g.N()))
			if _, err := distsim.Run(g, distsim.Programs(nodes), distsim.Options{MaxRounds: 10}); err != nil {
				return 0
			}
			s := distsim.UniformSchedule(nodes, b).TruncateInvalid(g, 1)
			return float64(s.Lifetime()) / float64(b)
		})
		return mean(vals)
	}()
	for _, loss := range []float64{0, 0.05, 0.2, 0.5} {
		srcs := root.SplitN(cfg.trials())
		type sample struct {
			prefix, dropped float64
			ok              bool
		}
		samples := mapTrials(cfg, "E21", cfg.trials(), func(i int) sample {
			src := srcs[i]
			nodes := distsim.NewUniformNodes(g, 3, src.SplitN(g.N()))
			st, err := distsim.Run(g, distsim.Programs(nodes), distsim.Options{MaxRounds: 10, Radio: distsim.FlatRadio(loss, src.Split())})
			if err != nil {
				return sample{}
			}
			s := distsim.UniformSchedule(nodes, b).TruncateInvalid(g, 1)
			return sample{
				prefix:  float64(s.Lifetime()) / float64(b),
				dropped: float64(st.Dropped),
				ok:      true,
			}
		})
		var prefixes, dropped []float64
		for _, sm := range samples {
			if sm.ok {
				prefixes = append(prefixes, sm.prefix)
				dropped = append(dropped, sm.dropped)
			}
		}
		if len(prefixes) == 0 {
			continue
		}
		p := mean(prefixes)
		rel := 0.0
		if baselinePrefix > 0 {
			rel = p / baselinePrefix
		}
		t.AddRow(pct(loss), f2(p), f2(rel), f2(mean(dropped)))
	}
	t.Notes = append(t.Notes,
		"losing a degree message can only *raise* a node's estimate of δ²_v, widening its color range —",
		"exactly the effect of lowering K (cf. E3): longer raw schedules whose validity is no longer",
		"guaranteed w.h.p. On dense graphs the realized valid prefix actually grows; the casualty is the",
		"proof, not the schedule. (Deployments would add link-layer acks, which the paper assumes anyway.)")
	return t
}
