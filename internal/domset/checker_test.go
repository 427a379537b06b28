package domset

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// naiveDominatorCount is the straight-line reference the Checker is verified
// against: |N+[v] ∩ set ∩ alive| with duplicates collapsed.
func naiveDominatorCount(g *graph.Graph, set []int, alive []bool, v int) int {
	in := make(map[int]bool)
	for _, s := range set {
		if alive == nil || alive[s] {
			in[s] = true
		}
	}
	count := 0
	if in[v] {
		count++
	}
	for _, u := range g.Neighbors(v) {
		if in[int(u)] {
			count++
		}
	}
	return count
}

func naiveUndominated(g *graph.Graph, set []int, k int, alive []bool) []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		if naiveDominatorCount(g, set, alive, v) < k {
			out = append(out, v)
		}
	}
	return out
}

func naiveDeficit(g *graph.Graph, set []int, k int, alive []bool) int {
	total := 0
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		if d := naiveDominatorCount(g, set, alive, v); d < k {
			total += k - d
		}
	}
	return total
}

// TestCheckerMatchesNaive cross-checks the dense kernel, the sparse kernel
// (via the free functions), and a naive reference on random graphs with
// random candidate sets, duplicate members, dead nodes, and k in 1..4.
func TestCheckerMatchesNaive(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		n := 1 + src.Intn(90)
		g := gen.GNP(n, 0.15, src)
		ck := NewChecker(g)
		for rep := 0; rep < 4; rep++ {
			var set []int
			for v := 0; v < n; v++ {
				if src.Intn(3) == 0 {
					set = append(set, v)
				}
			}
			if len(set) > 0 {
				set = append(set, set[0]) // duplicate member must collapse
			}
			var alive []bool
			if src.Intn(2) == 0 {
				alive = make([]bool, n)
				for v := range alive {
					alive[v] = src.Intn(5) != 0
				}
			}
			for k := 1; k <= 4; k++ {
				wantUndom := naiveUndominated(g, set, k, alive)
				wantDom := len(wantUndom) == 0
				wantDef := naiveDeficit(g, set, k, alive)

				if got := ck.IsKDominating(set, k, alive); got != wantDom {
					t.Fatalf("n=%d k=%d: dense IsKDominating = %v, want %v", n, k, got, wantDom)
				}
				if got := IsKDominating(g, set, k, alive); got != wantDom {
					t.Fatalf("n=%d k=%d: sparse IsKDominating = %v, want %v", n, k, got, wantDom)
				}
				aliveN := n
				if alive != nil {
					aliveN = 0
					for _, a := range alive {
						if a {
							aliveN++
						}
					}
				}
				if got := ck.CoveredCount(set, k, alive); got != aliveN-len(wantUndom) {
					t.Fatalf("n=%d k=%d: CoveredCount = %d, want %d", n, k, got, aliveN-len(wantUndom))
				}
				if got := ck.DominatorDeficit(set, k, alive); got != wantDef {
					t.Fatalf("n=%d k=%d: DominatorDeficit = %d, want %d", n, k, got, wantDef)
				}
				got := ck.AppendUndominated(nil, set, k, alive)
				if len(got) != len(wantUndom) {
					t.Fatalf("n=%d k=%d: undominated %v, want %v", n, k, got, wantUndom)
				}
				for i := range got {
					if got[i] != wantUndom[i] {
						t.Fatalf("n=%d k=%d: undominated %v, want %v", n, k, got, wantUndom)
					}
				}
				if free := UndominatedNodes(g, set, k, alive); len(free) != len(wantUndom) {
					t.Fatalf("n=%d k=%d: free UndominatedNodes %v, want %v", n, k, free, wantUndom)
				}
			}
		}
	}
}

func TestCheckerKBelowOne(t *testing.T) {
	g := gen.Path(4)
	ck := NewChecker(g)
	if !ck.IsKDominating(nil, 0, nil) {
		t.Fatal("k=0 must be vacuously dominated (free-function contract)")
	}
	if got := ck.CoveredCount(nil, 0, nil); got != 4 {
		t.Fatalf("k=0 CoveredCount = %d, want 4", got)
	}
	if got := ck.DominatorDeficit(nil, 0, nil); got != 0 {
		t.Fatalf("k=0 deficit = %d, want 0", got)
	}
}

func TestCheckerEmptyGraph(t *testing.T) {
	ck := NewChecker(graph.New(0))
	if !ck.IsKDominating(nil, 1, nil) {
		t.Fatal("empty graph must be vacuously dominated")
	}
	if ck.CoveredCount(nil, 1, nil) != 0 {
		t.Fatal("empty graph covered count must be 0")
	}
}

func TestCheckerPanicsOutOfRange(t *testing.T) {
	ck := NewChecker(gen.Path(3))
	for _, set := range [][]int{{3}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("set %v did not panic", set)
				}
			}()
			ck.IsKDominating(set, 1, nil)
		}()
	}
}

// TestCheckerZeroAllocs is the allocation-regression guard of the kernel:
// after one warm-up call per k (which may grow the level buffers), every
// steady-state query must allocate nothing.
func TestCheckerZeroAllocs(t *testing.T) {
	g := gen.GNP(300, 0.05, rng.New(9))
	ck := NewChecker(g)
	set := Greedy(g)
	if set == nil {
		t.Fatal("greedy failed")
	}
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = v%7 != 0
	}
	undom := make([]int, 0, g.N())
	for _, k := range []int{1, 3} {
		// Warm up: grows ck.levels to k.
		ck.IsKDominating(set, k, alive)
		checks := map[string]func(){
			"IsKDominating":     func() { ck.IsKDominating(set, k, alive) },
			"CoveredCount":      func() { ck.CoveredCount(set, k, alive) },
			"DominatorDeficit":  func() { ck.DominatorDeficit(set, k, alive) },
			"AppendUndominated": func() { undom = ck.AppendUndominated(undom[:0], set, k, alive) },
		}
		for name, fn := range checks {
			if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
				t.Errorf("k=%d: %s allocates %.1f per call, want 0", k, name, allocs)
			}
		}
	}
}

func benchCheckerGraph(n int) (*graph.Graph, []int) {
	p := 10 * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	g := gen.GNP(n, p, rng.New(uint64(n)))
	return g, Greedy(g)
}

func BenchmarkCheckerCoveredCount(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g, set := benchCheckerGraph(n)
		ck := NewChecker(g)
		alive := make([]bool, n)
		for v := range alive {
			alive[v] = true
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ck.CoveredCount(set, 1, alive)
			}
		})
	}
}

func BenchmarkCheckerIsKDominating(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g, set := benchCheckerGraph(n)
		ck := NewChecker(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ck.IsKDominating(set, 1, nil)
			}
		})
	}
}

func BenchmarkCheckerAppendUndominated(b *testing.B) {
	g, set := benchCheckerGraph(1024)
	ck := NewChecker(g)
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = v%5 != 0
	}
	buf := make([]int, 0, g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = ck.AppendUndominated(buf[:0], set, 2, alive)
	}
}
