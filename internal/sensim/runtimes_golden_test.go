package sensim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/reconfig"
	"repro/internal/rng"
	"repro/internal/sensim"
	"repro/internal/solver"
)

// slotRuntimesGolden is the SHA-256 of TestSlotRuntimesGolden's transcript.
const slotRuntimesGolden = "137b4aa91a4e9074b7835f65eec6c291699487fc5c8a87905b3870f15772639d"

// TestSlotRuntimesGolden pins what the four slot runtimes measure —
// sensim.Run, sensim.RunRealistic, heal.Run and reconfig.Simulate — over a
// fixed corpus of graphs, budgets, schedules and chaos plans. The result
// fields and the SHA-256 of every run's JSONL trace go into one transcript,
// hashed into one SHA-256; the hash was recorded before the runtimes shared
// sensim.Score, so it leaves out the CoveredSlots of sensim, heal and
// RunRealistic and RunRealistic's Coverage, which Simulate's lines cover. A
// change to how a slot is scored, when a runtime stops, which events it
// emits or in what order fails it; the transcript is logged on a mismatch
// so the moved lines can be diffed.
func TestSlotRuntimesGolden(t *testing.T) {
	var out bytes.Buffer
	src := rng.New(34)
	for _, c := range goldenCorpus(src.Split()) {
		n := c.g.N()
		for _, k := range []int{1, 2} {
			for _, bud := range []struct {
				name   string
				max    int
				random bool
			}{{"uniform3", 3, false}, {"random6", 6, true}} {
				budgets := make([]int, n)
				bsrc := src.Split()
				for v := range budgets {
					budgets[v] = bud.max
					if bud.random {
						budgets[v] = 1 + bsrc.Intn(bud.max)
					}
				}
				name := fmt.Sprintf("%s k=%d %s", c.name, k, bud.name)
				s, err := goldenSchedule(c.g, budgets, k, src.Split())
				if err != nil {
					fmt.Fprintf(&out, "%s solve: %v\n", name, err)
					continue
				}
				horizon := s.Lifetime()
				fmt.Fprintf(&out, "%s schedule lifetime=%d phases=%d\n", name, horizon, len(s.Phases))
				if k == 1 {
					goldenRealistic(&out, name, c.g, s, budgets)
				}
				// The faults spread past the nominal schedule, over the slots
				// heal's replans and Simulate's incoming schedules add.
				chaosHorizon := horizon + 2*bud.max
				for _, pl := range goldenPlans {
					seed := src.Uint64()
					plan := func() chaos.Plan { return pl.build(c.g, chaosHorizon, rng.New(seed)) }
					name := name + " " + pl.name

					var trace bytes.Buffer
					res := sensim.Run(energy.NewNetwork(c.g, budgets), s,
						sensim.Options{K: k, Chaos: plan(), Hooks: obs.Hooks{Trace: obs.NewJSONL(&trace)}})
					fmt.Fprintf(&out, "sensim %s: achieved=%d nominal=%d fv=%d cov=%v energy=%d reports=%d deaths=%d trace=%s\n",
						name, res.AchievedLifetime, res.ScheduleLifetime, res.FirstViolation, res.Coverage,
						res.EnergySpent, res.ReportsDelivered, res.Deaths, traceSum(&trace))

					trace.Reset()
					hres, err := heal.Run(energy.NewNetwork(c.g, budgets), s,
						heal.Options{K: k, Chaos: plan(), Hooks: obs.Hooks{Trace: obs.NewJSONL(&trace)}})
					fmt.Fprintf(&out, "heal %s: err=%v achieved=%d nominal=%d fv=%d cov=%v energy=%d deaths=%d "+
						"attempts=%d retries=%d successes=%d recruited=%d protocol=%+v replans=%d degraded=%d trace=%s\n",
						name, err, hres.AchievedLifetime, hres.ScheduleLifetime, hres.FirstViolation, hres.Coverage,
						hres.EnergySpent, hres.Deaths, hres.PatchAttempts, hres.Retries, hres.PatchSuccesses,
						hres.Recruited, hres.Protocol, hres.Replans, hres.DegradedSlots, traceSum(&trace))

					if n < 6 {
						continue
					}
					dsrc := rng.New(seed ^ 0xde17a)
					events := []reconfig.Change{{At: horizon / 3, Delta: replaceNode(n, bud.max, dsrc)}}
					for _, overlap := range []int{0, 2} {
						for _, solverName := range []string{"", solver.NameGeneral} {
							trace.Reset()
							sres, err := reconfig.Simulate(c.g, s, budgets, events, reconfig.SimOptions{
								K: k, Overlap: overlap, Solver: solverName, Tries: 5, Seed: seed,
								WakeLoss: 0.4, Chaos: plan(), Hooks: obs.Hooks{Trace: obs.NewJSONL(&trace)},
							})
							fmt.Fprintf(&out, "simulate %s overlap=%d solver=%q: err=%v slots=%d nominal=%d achieved=%d "+
								"covered=%d fv=%d cov=%v energy=%d overlapEnergy=%d reconfigs=%d degraded=%d "+
								"violated=%d wakeMisses=%d deaths=%d trace=%s\n",
								name, overlap, solverName, err, sres.Slots, sres.ScheduleLifetime, sres.AchievedLifetime,
								sres.CoveredSlots, sres.FirstViolation, sres.Coverage, sres.EnergySpent, sres.OverlapEnergy,
								sres.Reconfigs, sres.DegradedTransitions, sres.ViolatedTransitions, sres.WakeMisses,
								sres.Deaths, traceSum(&trace))
						}
					}
				}
			}
		}
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != slotRuntimesGolden {
		t.Logf("transcript (%d lines):\n%s", bytes.Count(out.Bytes(), []byte("\n")), out.String())
		t.Fatalf("slot runtimes transcript hash = %s, want %s", got, slotRuntimesGolden)
	}
}

type goldenGraph struct {
	name string
	g    *graph.Graph
}

// goldenCorpus is the fixed graph corpus: random GNP graphs (p = 5 ln n / n)
// and unit-disk graphs at three sizes, then a grid, a path, a clique, a star
// and the empty graph.
func goldenCorpus(src *rng.Source) []goldenGraph {
	var out []goldenGraph
	for _, n := range []int{40, 50, 60} {
		out = append(out, goldenGraph{fmt.Sprintf("gnp%d", n),
			gen.GNP(n, 5*math.Log(float64(n))/float64(n), src.Split())})
	}
	for _, n := range []int{40, 50, 60} {
		g, _ := gen.RandomUDG(n, 1, 0.3, src.Split())
		out = append(out, goldenGraph{fmt.Sprintf("udg%d", n), g})
	}
	return append(out,
		goldenGraph{"grid5x6", gen.Grid(5, 6)},
		goldenGraph{"path5", gen.Path(5)},
		goldenGraph{"k6", gen.Complete(6)},
		goldenGraph{"star7", gen.Star(7)},
		goldenGraph{"empty", graph.NewFromEdges(0, nil)},
	)
}

// goldenSchedule solves the case with general (k = 1) or generalft (k = 2)
// at 5 tries. The empty graph gets a literal three-slot schedule of empty
// sets, the only schedule it has.
func goldenSchedule(g *graph.Graph, budgets []int, k int, src *rng.Source) (*core.Schedule, error) {
	if g.N() == 0 {
		return &core.Schedule{Phases: []core.Phase{{Set: []int{}, Duration: 3}}}, nil
	}
	name := solver.NameGeneral
	if k > 1 {
		name = solver.NameGeneralFT
	}
	return solver.Solve(instance.New(g, budgets).WithK(k), solver.Spec{Name: name},
		solver.Options{Tries: 5, Src: src})
}

// goldenPlans are the chaos plans every case runs under: none, random
// crashes plus leaks, two regional blackouts plus a flat-loss radio, and
// every node crashing at mid-horizon.
var goldenPlans = []struct {
	name  string
	build func(g *graph.Graph, horizon int, src *rng.Source) chaos.Plan
}{
	{"none", func(*graph.Graph, int, *rng.Source) chaos.Plan { return chaos.Plan{} }},
	{"crash+leak", func(g *graph.Graph, horizon int, src *rng.Source) chaos.Plan {
		return chaos.Merge(
			chaos.Crashes(g, g.N()/5, horizon, src.Split()),
			chaos.LeakSpikes(g, g.N()/4, 2, horizon, src.Split()),
		)
	}},
	{"blackout+loss", func(g *graph.Graph, horizon int, src *rng.Source) chaos.Plan {
		regions := 2
		if g.N() == 0 {
			regions = 0
		}
		return chaos.Merge(
			chaos.Blackouts(g, regions, 3, horizon, src.Split()),
			chaos.FlatLoss(0.2, src.Split()),
		)
	}},
	{"wipeout", func(g *graph.Graph, horizon int, _ *rng.Source) chaos.Plan {
		var crashes energy.FailurePlan
		for v := 0; v < g.N(); v++ {
			crashes = append(crashes, energy.Failure{Time: horizon / 2, Node: v})
		}
		return chaos.Plan{Crashes: crashes}
	}},
}

// goldenRealistic runs the battery-drain model three ways: no drain, an
// active cost of 2 with a sleep cost of 1, and a transmission cost of 1 on a
// BFS aggregation tree when the graph is connected.
func goldenRealistic(out *bytes.Buffer, name string, g *graph.Graph, s *core.Schedule, batteries []int) {
	models := []struct {
		name string
		m    sensim.Model
		tree bool
	}{
		{"zero-drain", sensim.Model{ActiveCost: 1}, false},
		{"sleep-drain", sensim.Model{ActiveCost: 2, SleepCost: 1}, false},
		{"tx", sensim.Model{ActiveCost: 1, TxCost: 1}, true},
	}
	for _, md := range models {
		var tree *agg.Tree
		if md.tree {
			var err error
			if tree, err = agg.NewBFSTree(g, 0); err != nil {
				continue
			}
		}
		res := sensim.RunRealistic(g, s, batteries, md.m, tree)
		fmt.Fprintf(out, "realistic %s %s: achieved=%d fv=%d deaths=%d energy=%d slots=%d\n",
			name, md.name, res.AchievedLifetime, res.FirstViolation, res.Deaths, res.EnergySpent,
			len(res.Coverage))
	}
}

// replaceNode returns a node-replacement delta: it removes node n/2, so
// every higher ID shifts down by one, and wires a fresh node with budget b
// to three random survivors.
func replaceNode(n, b int, src *rng.Source) graph.Delta {
	perm := src.Perm(n - 1)
	edges := make([][2]int, 3)
	for i, v := range perm[:3] {
		edges[i] = [2]int{v, n - 1}
	}
	return graph.Delta{RemoveNodes: []int{n / 2}, AddNodes: 1, NewBudgets: []int{b}, AddEdges: edges}
}

func traceSum(b *bytes.Buffer) string {
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}
