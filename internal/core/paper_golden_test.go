package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/domatic"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// paperModelGolden is the SHA-256 of TestPaperModelGolden's transcript.
const paperModelGolden = "1313b2d01141776f4b7eff5869bdae405198f4324f9787bb0a1df2d6015b6b4d"

// clusterWithTail joins a clique of size dense to a path of tail nodes at
// node dense-1, so the two-hop minimum degree and the energy coverage both
// vary across the graph.
func clusterWithTail(dense, tail int) *graph.Graph {
	var edges [][2]int
	for u := 0; u < dense; u++ {
		for v := u + 1; v < dense; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	for v := dense; v < dense+tail; v++ {
		edges = append(edges, [2]int{v - 1, v})
	}
	return graph.NewFromEdges(dense+tail, edges)
}

// emptySlotBeforeLast reports whether some phase other than the last has
// an empty set: a raw Algorithm 2 schedule keeps a slot no node drew.
func emptySlotBeforeLast(s *core.Schedule) bool {
	for i := 0; i+1 < len(s.Phases); i++ {
		if len(s.Phases[i].Set) == 0 {
			return true
		}
	}
	return false
}

// TestPaperModelGolden pins the paper's formulas and Algorithms 1–3 as the
// centralized code and the distributed protocols compute them: the raw,
// untruncated schedules of core.Uniform, General, FaultTolerant and
// GeneralFaultTolerant; distsim's three assemblies after the message
// exchanges, with per-node sources, and each GeneralNode's slot set in draw
// order; the Lemma 4.2/5.2 guarantees
// (GuaranteedPhases, GeneralGuaranteedSlots, FaultTolerantGuarantee,
// domatic.GuaranteedClasses); RandomColoring and RandomColoringGlobal; the
// Lemma 5.1 and 6.1 bounds; and exact.Integral's value and schedule for
// n ≤ 10 at k = 1 and 2. The corpus runs from n = 0 and n = 1 through
// paths, stars, cliques, GNP graphs, UDGs and a dense cluster joined to a
// sparse tail, at K = 1 and 3, k = 1 to 3, uniform batteries, skewed ones
// up to 40 (past the draw length at which core.DrawSlots stops scanning)
// and b = 0. The transcript is logged on a mismatch.
func TestPaperModelGolden(t *testing.T) {
	type entry struct {
		name string
		g    *graph.Graph
	}
	src := rng.New(35)
	corpus := []entry{{"empty", graph.New(0)}, {"single", graph.New(1)}}
	for _, n := range []int{2, 3, 7} {
		corpus = append(corpus, entry{fmt.Sprintf("path%d", n), gen.Path(n)})
	}
	for _, n := range []int{5, 9} {
		corpus = append(corpus, entry{fmt.Sprintf("star%d", n), gen.Star(n)})
	}
	for _, n := range []int{2, 4, 9} {
		corpus = append(corpus, entry{fmt.Sprintf("clique%d", n), gen.Complete(n)})
	}
	for _, n := range []int{6, 10, 40, 90} {
		corpus = append(corpus, entry{fmt.Sprintf("gnp%d", n), gen.GNP(n, 0.35, src.Split())})
	}
	for _, n := range []int{10, 60} {
		g, _ := gen.RandomUDG(n, 1, 0.45, src.Split())
		corpus = append(corpus, entry{fmt.Sprintf("udg%d", n), g})
	}
	corpus = append(corpus, entry{"cluster12+tail6", clusterWithTail(12, 6)})

	var out bytes.Buffer
	emptySlots := 0
	for _, e := range corpus {
		g, n := e.g, e.g.N()
		budgets := [][]int{make([]int, n)} // b = 0 everywhere
		for _, b := range []int{1, 3} {
			uniform := make([]int, n)
			for v := range uniform {
				uniform[v] = b
			}
			budgets = append(budgets, uniform)
		}
		for _, hi := range []int{3, 9, 40} {
			skewed := make([]int, n)
			for v := range skewed {
				skewed[v] = src.Intn(hi + 1)
			}
			budgets = append(budgets, skewed)
		}

		for _, K := range []float64{1, 3} {
			name := fmt.Sprintf("%s K=%g", e.name, K)
			opt := func() core.Options { return core.Options{K: K, Src: src.Split()} }
			fmt.Fprintf(&out, "%s guaranteed: phases %d classes %d\n", name,
				core.GuaranteedPhases(g, opt()), domatic.GuaranteedClasses(g, K))
			fmt.Fprintf(&out, "%s coloring: %v global: %v\n", name,
				domatic.RandomColoring(g, K, src.Split()), domatic.RandomColoringGlobal(g, K, src.Split()))

			uniformNodes := distsim.NewUniformNodes(g, K, src.Split().SplitN(n))
			if _, err := distsim.Run(g, distsim.Programs(uniformNodes), distsim.Options{}); err != nil {
				t.Fatalf("%s: uniform protocol: %v", name, err)
			}
			for _, b := range []int{0, 1, 3, 4} {
				fmt.Fprintf(&out, "%s b=%d uniform: %v distsim: %v\n", name, b,
					core.Uniform(g, b, opt()), distsim.UniformSchedule(uniformNodes, b))
				for k := 1; k <= 3; k++ {
					fmt.Fprintf(&out, "%s b=%d k=%d ft: %v guarantee %d distsim: %v\n", name, b, k,
						core.FaultTolerant(g, b, k, opt()), core.FaultTolerantGuarantee(g, b, k, opt()),
						distsim.FaultTolerantSchedule(uniformNodes, b, k))
				}
			}

			for _, b := range budgets {
				raw := core.General(g, b, opt())
				if emptySlotBeforeLast(raw) {
					emptySlots++
				}
				generalNodes := distsim.NewGeneralNodes(g, b, K, src.Split().SplitN(n))
				if _, err := distsim.Run(g, distsim.Programs(generalNodes), distsim.Options{}); err != nil {
					t.Fatalf("%s: general protocol: %v", name, err)
				}
				fmt.Fprintf(&out, "%s b=%v general: %v guaranteed %d bound %d distsim: %v colors:", name, b,
					raw, core.GeneralGuaranteedSlots(g, b, opt()), core.GeneralUpperBound(g, b),
					distsim.GeneralSchedule(generalNodes))
				for _, gn := range generalNodes {
					fmt.Fprintf(&out, " %v", gn.Colors)
				}
				out.WriteByte('\n')
				for k := 1; k <= 3; k++ {
					fmt.Fprintf(&out, "%s b=%v k=%d general-ft: %v bound %d\n", name, b, k,
						core.GeneralFaultTolerant(g, b, k, opt()), core.GeneralKTolerantUpperBound(g, b, k))
				}
			}
		}
		if n > 10 {
			continue
		}
		for _, b := range budgets[:4] {
			for k := 1; k <= 2; k++ {
				val, sets, durs := exact.Integral(g, b, k)
				fmt.Fprintf(&out, "%s b=%v k=%d integral: %d %v %v\n", e.name, b, k, val, sets, durs)
			}
		}
	}
	if emptySlots == 0 {
		t.Fatal("no raw General schedule in the corpus has an empty slot before its last slot")
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != paperModelGolden {
		t.Errorf("paper model transcript SHA-256 = %s, want %s (%d lines, %d raw General schedules with an empty slot)\n%s",
			got, paperModelGolden, bytes.Count(out.Bytes(), []byte("\n")), emptySlots, out.String())
	}
}
