package experiments

import (
	"math"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sensim"
	"repro/internal/solver"
)

func runE5(cfg Config) *Table {
	t := &Table{
		Header: []string{"regime", "n", "δ", "k", "UB=b(δ+1)/k", "lifetime", "ratio", "ratio/ln n"},
	}
	const b = 4
	root := rng.New(cfg.Seed + 5)
	n := 512
	if cfg.Quick {
		n = 128
	}
	// Dense regime: δ/ln n ≥ k — merged color classes carry the schedule.
	dense := gen.GNP(n, 18*math.Log(float64(n))/float64(n), root.Split())
	// Sparse regime: δ/ln n < k — the everyone-active phase carries it.
	sparse := gen.Grid(isqrt(n), isqrt(n))
	for _, reg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"dense (δ/ln n ≥ k)", dense},
		{"sparse (δ/ln n < k)", sparse},
	} {
		g := reg.g
		budgets := energy.Uniform(g, b)
		for _, k := range []int{1, 2, 3, 4} {
			if g.MinDegree()+1 < k {
				continue // k-domination infeasible
			}
			srcs := root.SplitN(cfg.trials())
			lifetimesAll := mapTrials(cfg, "E5", cfg.trials(), func(i int) int {
				return solve(solver.NameFT, g, budgets, k, 30, srcs[i]).Lifetime()
			})
			var ratios, lifetimes []float64
			ub := core.GeneralKTolerantUpperBound(g, budgets, k)
			for _, lt := range lifetimesAll {
				if lt == 0 {
					continue
				}
				ratios = append(ratios, float64(ub)/float64(lt))
				lifetimes = append(lifetimes, float64(lt))
			}
			if len(ratios) == 0 {
				continue
			}
			r := mean(ratios)
			t.AddRow(reg.name, itoa(g.N()), itoa(g.MinDegree()), itoa(k),
				itoa(ub),
				f2(mean(lifetimes)),
				f2(r), f3(r/math.Log(float64(g.N()))))
		}
	}
	t.Notes = append(t.Notes,
		"dense regime: ratio/ln n near constant (merged classes dominate the schedule)",
		"sparse regime: ratio bounded by 2(δ+1)/k + rounding — constant, below the ln n envelope (paper, proof of Thm 6.2)")
	return t
}

// isqrt returns ⌊√n⌋.
func isqrt(n int) int {
	r := int(math.Sqrt(float64(n)))
	for r*r > n {
		r--
	}
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func runE10(cfg Config) *Table {
	t := &Table{
		Header: []string{"schedule", "kill budget", "trials", "survived", "mean achieved/nominal"},
	}
	root := rng.New(cfg.Seed + 10)
	n := 400
	if cfg.Quick {
		n = 150
	}
	const b = 4
	const k = 3
	g := gen.GNP(n, 20*math.Log(float64(n))/float64(n), root.Split())
	// Victim: a minimum-degree node (the adversary's easiest target).
	victim := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) < g.Degree(victim) {
			victim = v
		}
	}
	trials := cfg.trials()
	type mk struct {
		name  string
		build func(src *rng.Source) *core.Schedule
	}
	schedules := []mk{
		{"greedy partition (1-dom)", func(src *rng.Source) *core.Schedule {
			p := domatic.GreedyPartition(g, domatic.GreedyExtractor)
			return core.FromPartition(p, b)
		}},
		{"Algorithm 3 (3-dom)", func(src *rng.Source) *core.Schedule {
			return solve(solver.NameFT, g, energy.Uniform(g, b), k, 30, src)
		}},
	}
	for _, sched := range schedules {
		for _, budget := range []int{1, k - 1} {
			srcs := root.SplitN(trials)
			type sample struct {
				frac     float64
				survived bool
				ok       bool
			}
			samples := mapTrials(cfg, "E10", trials, func(i int) sample {
				s := sched.build(srcs[i])
				if s.Lifetime() == 0 {
					return sample{}
				}
				plan := sensim.AdversarialPlan(g, s, victim, budget)
				net := energy.NewNetwork(g, energy.Uniform(g, b))
				res := sensim.Run(net, s, sensim.Options{K: 1, Chaos: chaos.Plan{Crashes: plan}})
				return sample{
					frac:     float64(res.AchievedLifetime) / float64(s.Lifetime()),
					survived: res.FirstViolation == -1,
					ok:       true,
				}
			})
			survived := 0
			var fracs []float64
			for _, sm := range samples {
				if !sm.ok {
					continue
				}
				fracs = append(fracs, sm.frac)
				if sm.survived {
					survived++
				}
			}
			if len(fracs) == 0 {
				continue
			}
			t.AddRow(sched.name, itoa(budget), itoa(len(fracs)),
				pct(float64(survived)/float64(len(fracs))),
				f2(mean(fracs)))
		}
	}
	t.Notes = append(t.Notes,
		"the adversary inspects the schedule and kills the victim's serving clusterheads in its weakest phase",
		"a 3-dominating schedule has no phase with < 3 servers: budgets 1 and 2 provably cannot break it",
		"the lifetime-maximal greedy partition has 1-server phases and falls to a single aimed crash")
	return t
}
