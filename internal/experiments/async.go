package experiments

import (
	"math"

	"repro/internal/async"
	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/rng"
)

func runE19(cfg Config) *Table {
	t := &Table{
		Header: []string{"wake spread", "dominators", "vs central greedy", "stabilized by", "beacons/slot"},
	}
	root := rng.New(cfg.Seed + 19)
	n := 300
	if cfg.Quick {
		n = 120
	}
	const listen = 4
	for _, spread := range []int{1, 10, 50, 200} {
		srcs := root.SplitN(cfg.trials())
		type sample struct {
			dom, greedy, stab, beacons float64
			ok                         bool
		}
		samples := mapTrials(cfg, "E19", cfg.trials(), func(i int) sample {
			src := srcs[i]
			side := math.Sqrt(float64(n))
			radius := math.Sqrt(12 * math.Log(float64(n)) / math.Pi)
			g, _ := gen.RandomUDG(n, side, radius, src)
			wake := async.StaggeredWakeTimes(g.N(), spread, src)
			horizon := spread + listen + 20
			res, err := async.Run(g, async.Config{Listen: listen, WakeTimes: wake, Horizon: horizon})
			if err != nil {
				return sample{}
			}
			if !domset.IsDominating(g, res.Dominators, nil) {
				return sample{}
			}
			return sample{
				dom:     float64(len(res.Dominators)),
				greedy:  float64(len(domset.Greedy(g))),
				stab:    float64(res.StabilizedAt),
				beacons: float64(res.Beacons) / float64(horizon),
				ok:      true,
			}
		})
		var dom, ratio, stab, beacons []float64
		for _, sm := range samples {
			if sm.ok {
				dom = append(dom, sm.dom)
				ratio = append(ratio, sm.dom/sm.greedy)
				stab = append(stab, sm.stab)
				beacons = append(beacons, sm.beacons)
			}
		}
		if len(dom) == 0 {
			continue
		}
		t.AddRow(itoa(spread),
			f2(mean(dom)),
			f2(mean(ratio)),
			f2(mean(stab)),
			f2(mean(beacons)))
	}
	t.Notes = append(t.Notes,
		"simultaneous wake-up (spread 1) is the worst case: everyone self-elects before hearing anyone",
		"staggered wake-ups let early dominators suppress their neighborhoods: density approaches the greedy's",
		"stabilization always happens within max wake time + listening window (no global clock needed)")
	return t
}
