package experiments

import (
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Figure1Instance reconstructs the paper's Figure 1 (the scan's drawing is
// unrecoverable; DESIGN.md §4 documents the reconstruction): a 7-node graph
// with non-uniform batteries whose optimal cluster-lifetime is exactly 6,
// bound by node 6, whose closed neighborhood {4, 5, 6} carries exactly 6
// units of energy. One optimal schedule runs a 2-node set for 2 slots, a
// 3-node set for 1 slot, and another 2-node set for 3 slots — the phase
// structure the figure depicts — and, as the caption notes, the optimum is
// not unique.
func Figure1Instance() (*graph.Graph, []int) {
	g := graph.NewFromEdges(7, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {3, 4}, {4, 5}, {4, 6}, {5, 6}})
	return g, []int{3, 2, 1, 1, 2, 3, 1}
}

func runE1(cfg Config) *Table {
	g, b := Figure1Instance()
	t := &Table{
		Header: []string{"quantity", "value"},
	}

	integral, sets, durs := exact.Integral(g, b, 1)
	fractional, _, _, err := exact.Fractional(g, b, 1)
	if err != nil {
		t.Notes = append(t.Notes, "fractional LP failed: "+err.Error())
	}
	bound := core.GeneralUpperBound(g, b)

	alg := solve(solver.NameGeneral, g, b, 1, 20*cfg.trials(), rng.New(cfg.Seed+1))

	t.AddRow("nodes", itoa(g.N()))
	t.AddRow("edges", itoa(g.M()))
	t.AddRow("Lemma 5.1 bound (min energy coverage)", itoa(bound))
	t.AddRow("integral optimum (paper: 6)", itoa(integral))
	t.AddRow("fractional LP optimum", f3(fractional))
	t.AddRow("optimal schedule phases", itoa(len(sets)))
	t.AddRow("Algorithm 2 lifetime (feasible, ≤ optimum)", itoa(alg.Lifetime()))

	total := 0
	for _, d := range durs {
		total += d
	}
	t.AddRow("optimal schedule total slots", itoa(total))
	t.Notes = append(t.Notes,
		"optimum binds at node 6: closed neighborhood {4,5,6} holds 6 energy units",
		"the optimal schedule is not unique (paper, Figure 1 caption)",
		"Algorithm 2's w.h.p. guarantee is asymptotic; on 7 nodes its color range collapses to ~1 slot — the exact solver is the right tool at this scale")
	return t
}
