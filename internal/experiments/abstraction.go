package experiments

import (
	"math"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/sensim"
)

func runE18(cfg Config) *Table {
	t := &Table{
		Header: []string{"configuration", "tx cost", "nominal lifetime", "achieved", "achieved/nominal", "deaths"},
	}
	root := rng.New(cfg.Seed + 18)
	n := 300
	if cfg.Quick {
		n = 120
	}
	const b = 4           // duty budget in the paper's model
	const activeCost = 20 // battery units per active slot
	// Each configuration pairs an overhead model with a battery reserve
	// margin: battery = activeCost·b·(1+margin). The paper prescribes
	// exactly this reserve ("b_v will be set to a value strictly smaller
	// than the total available energy", §2); the sweep shows how much
	// reserve the overheads actually demand.
	models := []struct {
		name   string
		model  sensim.Model
		margin float64
	}{
		{"0% (paper model)", sensim.Model{ActiveCost: activeCost}, 0},
		{"5% sleep, no reserve", sensim.Model{ActiveCost: activeCost, SleepCost: 1}, 0},
		{"5% sleep, 2x reserve", sensim.Model{ActiveCost: activeCost, SleepCost: 1}, 2},
		{"5% sleep, 5x reserve", sensim.Model{ActiveCost: activeCost, SleepCost: 1}, 5},
		{"5% sleep + tx, 5x reserve", sensim.Model{ActiveCost: activeCost, SleepCost: 1, TxCost: 2}, 5},
	}
	for _, mc := range models {
		srcs := root.SplitN(cfg.trials())
		type sample struct {
			nominal, achieved, deaths float64
			ok                        bool
		}
		samples := mapTrials(cfg, "E18", cfg.trials(), func(i int) sample {
			src := srcs[i]
			side := math.Sqrt(float64(n))
			radius := math.Sqrt(16 * math.Log(float64(n)) / math.Pi)
			g, _ := gen.RandomUDG(n, side, radius, src)
			if !g.Connected() {
				return sample{}
			}
			// The long greedy-partition schedule: the regime where idle
			// drain hurts, because every node sleeps through most classes.
			p := domatic.GreedyPartition(g, domatic.GreedyExtractor)
			s := core.FromPartition(p, b)
			if s.Lifetime() == 0 {
				return sample{}
			}
			batteries := make([]int, g.N())
			for j := range batteries {
				batteries[j] = int(float64(activeCost*b) * (1 + mc.margin))
			}
			tree, err := agg.NewBFSTree(g, 0)
			if err != nil {
				return sample{}
			}
			res := sensim.RunRealistic(g, s, batteries, mc.model, tree)
			return sample{
				nominal:  float64(s.Lifetime()),
				achieved: float64(res.AchievedLifetime),
				deaths:   float64(res.Deaths),
				ok:       true,
			}
		})
		var nominal, achieved, fracs, deaths []float64
		for _, sm := range samples {
			if sm.ok {
				nominal = append(nominal, sm.nominal)
				achieved = append(achieved, sm.achieved)
				fracs = append(fracs, sm.achieved/sm.nominal)
				deaths = append(deaths, sm.deaths)
			}
		}
		if len(nominal) == 0 {
			continue
		}
		t.AddRow(mc.name, itoa(mc.model.TxCost),
			f2(mean(nominal)),
			f2(mean(achieved)),
			f2(mean(fracs)),
			f2(mean(deaths)))
	}
	t.Notes = append(t.Notes,
		"with zero idle drain the duty-budget abstraction is exact: achieved = nominal",
		"without a battery reserve, even 5% idle drain collapses long schedules (sleep slots dominate)",
		"the paper's prescription (§2: set b_v strictly below the battery) works: with enough reserve the",
		"abstraction becomes accurate again, and the reserve size needed is ≈ sleep-rate × schedule length")
	return t
}
