// Quickstart: deploy a random unit disk network, schedule it with the
// paper's Algorithm 1 (uniform batteries), and compare the achieved
// cluster-lifetime with the Lemma 4.1 upper bound.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/solver"
)

func main() {
	// A 200-node sensor deployment in a 14×14 field with radio range 7:
	// dense enough (δ well above 3·ln n) that the domatic machinery has
	// room to build several disjoint dominating sets.
	src := rng.New(7)
	g, _ := gen.RandomUDG(200, 14, 7, src)
	fmt.Println("deployment:", g)

	// Every node may serve in dominating sets for b = 5 slots. The solver
	// registry resolves "uniform" to the paper's Algorithm 1 and runs the
	// WHP retry driver (30 tries, early stop at the Lemma 4.2 guarantee).
	const b = 5
	budgets := energy.Uniform(g, b)
	in := instance.New(g, budgets)
	schedule, err := solver.Solve(in, solver.Spec{Name: solver.NameUniform},
		solver.Options{Tries: 30, Src: src.Split()})
	if err != nil {
		log.Fatal(err)
	}

	// The driver validated the schedule already; Validate double-checks.
	if err := schedule.Validate(g, budgets, 1); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("schedule: %d phases, lifetime %d slots\n",
		len(schedule.Phases), schedule.Lifetime())
	fmt.Printf("upper bound on any schedule (Lemma 4.1): %d slots\n",
		core.GeneralUpperBound(g, budgets))
	fmt.Printf("naive always-on baseline: %d slots\n", b)
	guaranteed, err := solver.Guaranteed(in, solver.Spec{Name: solver.NameUniform})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guaranteed by Theorem 4.3 w.h.p.: ≥ %d slots\n", guaranteed)

	if schedule.Lifetime() <= b {
		fmt.Println("(dense deployments give the scheduler room; sparse ones degrade to the baseline)")
	}

	// Print the first few phases.
	for i, p := range schedule.Phases {
		if i == 3 {
			fmt.Printf("  … %d more phases\n", len(schedule.Phases)-3)
			break
		}
		fmt.Printf("  phase %d: %d clusterheads for %d slots\n", i, len(p.Set), p.Duration)
	}
	os.Exit(0)
}
