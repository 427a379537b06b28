package experiments

import (
	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func runE12(cfg Config) *Table {
	t := &Table{
		Header: []string{"K", "raw lifetime", "truncated", "dropped", "drop gain"},
	}
	root := rng.New(cfg.Seed + 12)
	n := 512
	if cfg.Quick {
		n = 128
	}
	const b = 3
	g := gen.GNP(n, 0.12, root.Split())
	for _, k := range []float64{1, 2, 3} {
		srcs := root.SplitN(cfg.trials())
		type sample struct{ raw, trunc, drop float64 }
		samples := mapTrials(cfg, "E12", cfg.trials(), func(i int) sample {
			s := core.Uniform(g, b, core.Options{K: k, Src: srcs[i]})
			return sample{
				raw:   float64(s.Lifetime()),
				trunc: float64(s.TruncateInvalid(g, 1).Lifetime()),
				drop:  float64(s.DropInvalid(g, 1).Lifetime()),
			}
		})
		var raws, truncs, drops []float64
		for _, sm := range samples {
			raws = append(raws, sm.raw)
			truncs = append(truncs, sm.trunc)
			drops = append(drops, sm.drop)
		}
		r := mean(raws)
		tr := mean(truncs)
		dr := mean(drops)
		gain := 0.0
		if tr > 0 {
			gain = dr / tr
		}
		t.AddRow(f2(k), f2(r), f2(tr), f2(dr), f2(gain))
	}
	t.Notes = append(t.Notes,
		"truncation models uncoordinated deployments (stop at first broken class); dropping models a coordinator that skips them",
		"with K=3 failures are rare and the repair strategies coincide; small K widens the gap")
	return t
}

func runE13(cfg Config) *Table {
	t := &Table{
		Header: []string{"deployment", "local valid classes", "global valid classes", "local active/slot", "global active/slot", "per-slot energy saving"},
	}
	root := rng.New(cfg.Seed + 13)
	n := 600
	if cfg.Quick {
		n = 200
	}
	deployments := []struct {
		name string
		udg  func(src *rng.Source) *graph.Graph
	}{
		{"uniform", func(src *rng.Source) *graph.Graph {
			g, _ := gen.RandomUDG(n, 24, 3.2, src)
			return g
		}},
		{"clustered", func(src *rng.Source) *graph.Graph {
			g, _ := gen.ClusteredUDG(n, 6, 24, 1.2, 3.2, src)
			return g
		}},
	}
	for _, dep := range deployments {
		srcs := root.SplitN(cfg.trials())
		type sample struct{ local, global, lSize, gSize float64 }
		samples := mapTrials(cfg, "E13", cfg.trials(), func(i int) sample {
			src := srcs[i]
			g := dep.udg(src)
			local := domatic.RandomColoring(g, 3, src.Split())
			global := domatic.RandomColoringGlobal(g, 3, src.Split())
			lp, gp := domatic.ValidPrefix(g, local), domatic.ValidPrefix(g, global)
			return sample{
				local: float64(lp), global: float64(gp),
				lSize: meanClassSize(local, lp), gSize: meanClassSize(global, gp),
			}
		})
		var locals, globals, lSizes, gSizes []float64
		for _, sm := range samples {
			locals = append(locals, sm.local)
			globals = append(globals, sm.global)
			lSizes = append(lSizes, sm.lSize)
			gSizes = append(gSizes, sm.gSize)
		}
		l := mean(locals)
		gl := mean(globals)
		ls := mean(lSizes)
		gs := mean(gSizes)
		saving := 0.0
		if ls > 0 {
			saving = gs / ls
		}
		t.AddRow(dep.name, f2(l), f2(gl), f2(ls), f2(gs), f2(saving))
	}
	t.Notes = append(t.Notes,
		"both variants sustain the same guaranteed prefix (bounded by the global δ), but the local δ² range",
		"spreads dense-region nodes over more classes, so each active slot wakes far fewer nodes —",
		"the per-slot energy saving reported in the last column. δ² is also computable in 1 round; δ is not.")
	return t
}

// meanClassSize returns the average size of the first `prefix` classes of p
// (0 if the prefix is empty).
func meanClassSize(p domatic.Partition, prefix int) float64 {
	if prefix == 0 {
		return 0
	}
	total := 0
	for _, class := range p[:prefix] {
		total += len(class)
	}
	return float64(total) / float64(prefix)
}
