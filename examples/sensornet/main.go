// Sensornet: the data-gathering scenario from the paper's introduction.
// Nodes with heterogeneous batteries monitor a field; at every time slot
// only a dominating set needs to stay awake, and each sleeping node hands
// its reading to an awake clusterhead. We execute three schedules on the
// energy simulator and compare how long the network keeps full coverage:
//
//  1. naive all-on (no scheduling),
//  2. the centralized greedy domatic partition, and
//  3. the paper's distributed Algorithm 2.
package main

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/sensim"
	"repro/internal/solver"
)

func main() {
	src := rng.New(2024)
	g, _ := gen.RandomUDG(300, 16, 4.5, src)
	fmt.Println("deployment:", g)

	// Heterogeneous duty budgets in [5, 20] — e.g. mixed battery ages.
	batteries := make([]int, g.N())
	minB := 20
	for i := range batteries {
		batteries[i] = 5 + src.Intn(16)
		if batteries[i] < minB {
			minB = batteries[i]
		}
	}
	fmt.Printf("duty budgets: 5..20 (energy coverage bound: %d slots)\n\n",
		core.GeneralUpperBound(g, batteries))

	// The data travels to a sink over a BFS aggregation tree (paper §2: the
	// duty budget b_v reserves battery precisely for this delivery).
	tree, err := agg.NewBFSTree(g, 0)
	if err != nil {
		fmt.Println("deployment disconnected; re-run with a larger radius:", err)
		return
	}

	execute := func(name string, s *core.Schedule) {
		net := energy.NewNetwork(g, batteries)
		res := sensim.Run(net, s, sensim.Options{K: 1})
		// Tree transmissions: each slot, the active clusterheads push their
		// aggregates to the sink.
		tx := 0
		for t := 0; t < res.AchievedLifetime; t++ {
			tx += tree.DeliveryCost(s.ActiveAt(t))
		}
		fmt.Printf("%-24s nominal %3d slots   achieved %3d slots   %6d readings   %6d tree transmissions\n",
			name, s.Lifetime(), res.AchievedLifetime, res.ReportsDelivered, tx)
	}

	// 1. Naive: everyone stays awake; the weakest battery caps the lifetime.
	execute("naive all-on", sensim.NaiveAllOn(g.N(), minB))

	// 2. Centralized greedy partition, each class run for the minimum
	// battery of its members (a simple residual-aware refinement).
	partition := domatic.GreedyPartition(g, domatic.GreedyExtractor)
	greedySchedule := &core.Schedule{}
	for _, class := range partition {
		dur := 0
		for i, v := range class {
			if i == 0 || batteries[v] < dur {
				dur = batteries[v]
			}
		}
		greedySchedule.Phases = append(greedySchedule.Phases,
			core.Phase{Set: class, Duration: dur})
	}
	execute("greedy partition", greedySchedule)

	// 3. Algorithm 2 — distributed, constant rounds, O(log(b_max·n))
	// approximation w.h.p. with the paper's analysis constant K = 3.
	in := instance.New(g, batteries)
	solve := func(spec solver.Spec) *core.Schedule {
		s, err := solver.Solve(in, spec,
			solver.Options{Tries: 30, Src: src.Split()})
		if err != nil {
			panic(err)
		}
		return s
	}
	execute("Algorithm 2 (K=3)", solve(solver.Spec{Name: solver.NameGeneral}))

	// 4. The same algorithm with K = 1: the proof constant is conservative;
	// in practice a 3× wider color range usually still validates (the WHP
	// driver checks and retries), tripling the lifetime.
	execute("Algorithm 2 (K=1)", solve(solver.Spec{Name: solver.NameGeneral, KConst: 1}))

	fmt.Println("\nthe centralized greedy tracks the energy-coverage bound; the distributed")
	fmt.Println("algorithm pays the Theorem 5.3 logarithmic factor for its 2 message rounds.")
}
