package experiments

import (
	"math"

	"repro/internal/distsim"
	"repro/internal/gen"
	"repro/internal/rng"
)

func e8Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{64, 256}
	}
	return []int{64, 256, 1024, 4096}
}

func runE8(cfg Config) *Table {
	t := &Table{
		Header: []string{"protocol", "n", "edges", "rounds", "messages", "msgs/edge"},
	}
	root := rng.New(cfg.Seed + 8)
	for _, n := range e8Sizes(cfg) {
		p := 8 * math.Log(float64(n)) / float64(n)
		if p > 1 {
			p = 1
		}
		src := root.Split()
		g := gen.GNP(n, p, src)

		sources := src.SplitN(n)
		uniNodes := distsim.NewUniformNodes(g, 3, sources)
		uniStats, err := distsim.Run(g, distsim.Programs(uniNodes), distsim.Options{MaxRounds: 10})
		if err == nil {
			t.AddRow("Alg1 uniform", itoa(n), itoa(g.M()), itoa(uniStats.Rounds),
				itoa(uniStats.Messages), f2(float64(uniStats.Messages)/float64(g.M())))
		}

		b := make([]int, n)
		for i := range b {
			b[i] = 1 + src.Intn(4)
		}
		genNodes := distsim.NewGeneralNodes(g, b, 3, src.SplitN(n))
		genStats, err := distsim.Run(g, distsim.Programs(genNodes), distsim.Options{MaxRounds: 10})
		if err == nil {
			t.AddRow("Alg2 general", itoa(n), itoa(g.M()), itoa(genStats.Rounds),
				itoa(genStats.Messages), f2(float64(genStats.Messages)/float64(g.M())))
		}
	}
	t.Notes = append(t.Notes,
		"rounds are constant in n: 1 exchange for Algorithm 1, 2 for Algorithm 2 (2-hop information only)",
		"messages are exactly one per edge direction per broadcast: 2M and 4M respectively")
	return t
}
