package domset

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestIsDominatingBasics(t *testing.T) {
	g := gen.Path(5) // 0-1-2-3-4
	cases := []struct {
		set  []int
		want bool
	}{
		{[]int{1, 3}, true},
		{[]int{0, 2, 4}, true},
		{[]int{2}, false},         // 0 and 4 uncovered
		{[]int{0, 4}, false},      // 2 uncovered
		{[]int{0, 1, 2, 3}, true}, // 4 covered by 3
		{nil, false},
	}
	for _, c := range cases {
		if got := IsDominating(g, c.set, nil); got != c.want {
			t.Errorf("IsDominating(path5, %v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestIsDominatingEmptyGraph(t *testing.T) {
	g := graph.New(0)
	if !IsDominating(g, nil, nil) {
		t.Fatal("empty set should dominate empty graph")
	}
}

func TestIsDominatingWithAlive(t *testing.T) {
	g := gen.Path(5)
	alive := []bool{true, true, false, true, true}
	// With node 2 dead, {1, 3} still dominates the alive nodes.
	if !IsDominating(g, []int{1, 3}, alive) {
		t.Fatal("{1,3} should dominate alive path5 minus node 2")
	}
	// A dead dominator does not count: {2} dead plus {0} covers only 0,1.
	if IsDominating(g, []int{0, 2}, alive) {
		t.Fatal("dead node 2 must not dominate 3 and 4")
	}
}

func TestIsKDominating(t *testing.T) {
	g := gen.Complete(4)
	if !IsKDominating(g, []int{0, 1}, 2, nil) {
		t.Fatal("two nodes of K4 2-dominate everything")
	}
	if IsKDominating(g, []int{0}, 2, nil) {
		t.Fatal("a single node cannot 2-dominate")
	}
	// Node in set counts itself: on K4, {0,1,2} 3-dominates node 0
	// (itself + 1 + 2).
	if !IsKDominating(g, []int{0, 1, 2}, 3, nil) {
		t.Fatal("{0,1,2} should 3-dominate K4")
	}
	if IsKDominating(g, []int{0, 1, 2}, 4, nil) {
		t.Fatal("4-domination impossible with 3 dominators")
	}
}

func TestGreedyProducesDominatingSet(t *testing.T) {
	src := rng.New(1)
	graphs := []*graph.Graph{
		gen.Path(10),
		gen.Ring(12),
		gen.Star(8),
		gen.Complete(6),
		gen.Grid(5, 5),
		gen.GNP(60, 0.1, src),
		gen.RandomTree(40, src),
	}
	for i, g := range graphs {
		set := Greedy(g)
		if !IsDominating(g, set, nil) {
			t.Errorf("graph %d: greedy set %v not dominating", i, set)
		}
	}
}

func TestGreedyStarIsOptimal(t *testing.T) {
	g := gen.Star(10)
	set := Greedy(g)
	if len(set) != 1 || set[0] != 0 {
		t.Fatalf("greedy on star = %v, want [0]", set)
	}
}

func TestGreedyRestrictedInfeasible(t *testing.T) {
	g := gen.Path(3)
	allowed := []bool{true, false, false}
	// Node 2's closed neighborhood {1, 2} is entirely disallowed.
	if set := GreedyRestricted(g, allowed, nil); set != nil {
		t.Fatalf("expected nil for infeasible restriction, got %v", set)
	}
}

func TestGreedyRestrictedRespectsAllowed(t *testing.T) {
	g := gen.Ring(6)
	allowed := []bool{true, false, true, false, true, false}
	set := GreedyRestricted(g, allowed, nil)
	if set == nil {
		t.Fatal("even ring with alternating allowed should be feasible")
	}
	for _, v := range set {
		if !allowed[v] {
			t.Fatalf("disallowed node %d in set %v", v, set)
		}
	}
	if !IsDominating(g, set, nil) {
		t.Fatalf("restricted greedy set %v not dominating", set)
	}
}

func TestGreedyKProducesKDominating(t *testing.T) {
	src := rng.New(2)
	g := gen.GNP(50, 0.25, src)
	for k := 1; k <= 3; k++ {
		if g.MinDegree()+1 < k {
			continue
		}
		set := GreedyK(g, k, nil, nil)
		if set == nil {
			t.Fatalf("k=%d: GreedyK infeasible on δ=%d graph", k, g.MinDegree())
		}
		if !IsKDominating(g, set, k, nil) {
			t.Fatalf("k=%d: set not k-dominating", k)
		}
	}
}

func TestGreedyKInfeasible(t *testing.T) {
	g := gen.Path(4) // leaf has closed neighborhood of size 2
	if set := GreedyK(g, 3, nil, nil); set != nil {
		t.Fatalf("3-domination of a path should be infeasible, got %v", set)
	}
}

func TestGreedyKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	GreedyK(gen.Path(3), 0, nil, nil)
}

func TestGreedyNeverPicksDeadNode(t *testing.T) {
	// Node 1 covers all three nodes of the path, but it is dead: a dead
	// member dominates no one, so it must not serve.
	g := gen.Path(3)
	alive := []bool{true, false, true}
	want := []int{0, 2}
	for name, set := range map[string][]int{
		"GreedyK":          GreedyK(g, 1, nil, alive),
		"GreedyRestricted": GreedyRestricted(g, nil, alive),
	} {
		if !reflect.DeepEqual(set, want) {
			t.Errorf("%s(path3, alive %v) = %v, want %v", name, alive, set, want)
		}
	}
}

// greedyKReference is the naive greedy loop GreedyK replaced: every pick
// recounts every candidate's closed neighborhood. It is kept as the oracle
// for the differential test (it does not exclude dead nodes itself; callers
// fold alive into allowed).
func greedyKReference(g *graph.Graph, k int, allowed, alive []bool) []int {
	n := g.N()
	demand := make([]int, n)
	total := 0
	for v := 0; v < n; v++ {
		if alive == nil || alive[v] {
			demand[v] = k
			total += k
		}
	}
	inSet := make([]bool, n)
	gain := func(v int) int {
		c := 0
		if demand[v] > 0 {
			c++
		}
		for _, u := range g.Neighbors(v) {
			if demand[u] > 0 {
				c++
			}
		}
		return c
	}
	var set []int
	for total > 0 {
		best, bestGain := -1, 0
		for v := 0; v < n; v++ {
			if inSet[v] || (allowed != nil && !allowed[v]) {
				continue
			}
			if c := gain(v); c > bestGain {
				best, bestGain = v, c
			}
		}
		if best == -1 {
			return nil
		}
		inSet[best] = true
		set = append(set, best)
		if demand[best] > 0 {
			demand[best]--
			total--
		}
		for _, u := range g.Neighbors(best) {
			if demand[u] > 0 {
				demand[u]--
				total--
			}
		}
	}
	sort.Ints(set)
	return set
}

// randomMask returns nil (all nodes) a quarter of the time, otherwise a
// mask with each node set independently with a random probability in
// [0.5, 1).
func randomMask(n int, src *rng.Source) []bool {
	if src.Intn(4) == 0 {
		return nil
	}
	p := 0.5 + 0.5*src.Float64()
	mask := make([]bool, n)
	for v := range mask {
		mask[v] = src.Float64() < p
	}
	return mask
}

// kFeasible reports whether every alive node has at least k allowed, alive
// members in its closed neighborhood — exactly when a k-dominating set
// drawn from the allowed, alive nodes exists.
func kFeasible(g *graph.Graph, k int, allowed, alive []bool) bool {
	can := func(v int) bool {
		return (allowed == nil || allowed[v]) && (alive == nil || alive[v])
	}
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		c := 0
		if can(v) {
			c++
		}
		for _, u := range g.Neighbors(v) {
			if can(int(u)) {
				c++
			}
		}
		if c < k {
			return false
		}
	}
	return true
}

// TestGreedyKDifferential checks GreedyK against the naive loop on random
// GNP and UDG instances with random allowed and alive masks, infeasible
// ones included: the sets must be identical pick for pick (nil included),
// Greedy and GreedyRestricted must agree with GreedyK at k = 1, and every
// result must be a k-dominating set of allowed, alive nodes, nil exactly
// when none exists or no node is alive.
func TestGreedyKDifferential(t *testing.T) {
	src := rng.New(13)
	infeasible := 0
	const cases = 2400
	for i := 0; i < cases; i++ {
		n := 1 + src.Intn(80)
		var g *graph.Graph
		family := "gnp"
		if i%2 == 0 {
			g = gen.GNP(n, 0.02+0.3*src.Float64(), src.Split())
		} else {
			family = "udg"
			g, _ = gen.RandomUDG(n, 1, 0.08+0.3*src.Float64(), src.Split())
		}
		k := 1 + src.Intn(3)
		allowed, alive := randomMask(n, src), randomMask(n, src)
		folded := allowed
		if alive != nil {
			folded = make([]bool, n)
			for v := range folded {
				folded[v] = alive[v] && (allowed == nil || allowed[v])
			}
		}

		got := GreedyK(g, k, allowed, alive)
		if want := greedyKReference(g, k, folded, alive); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%s n=%d k=%d): GreedyK = %v, reference = %v", i, family, n, k, got, want)
		}
		// With no alive node the empty set is the answer, returned as nil.
		anyAlive := alive == nil || slices.Contains(alive, true)
		if feasible := kFeasible(g, k, allowed, alive); (got != nil) != (feasible && anyAlive) {
			t.Fatalf("case %d (%s n=%d k=%d): GreedyK = %v but feasible = %v", i, family, n, k, got, feasible)
		}
		if got == nil {
			infeasible++
		} else {
			if !IsKDominating(g, got, k, alive) {
				t.Fatalf("case %d (%s n=%d k=%d): %v is not %d-dominating", i, family, n, k, got, k)
			}
			for _, v := range got {
				if folded != nil && !folded[v] {
					t.Fatalf("case %d (%s n=%d k=%d): disallowed or dead node %d in %v", i, family, n, k, v, got)
				}
			}
		}

		one := GreedyK(g, 1, allowed, alive)
		if r := GreedyRestricted(g, allowed, alive); !reflect.DeepEqual(r, one) {
			t.Fatalf("case %d: GreedyRestricted = %v, GreedyK(1) = %v", i, r, one)
		}
		if gr, want := Greedy(g), GreedyK(g, 1, nil, nil); !reflect.DeepEqual(gr, want) {
			t.Fatalf("case %d: Greedy = %v, GreedyK(1) = %v", i, gr, want)
		}
	}
	if infeasible == 0 || infeasible == cases {
		t.Fatalf("%d of %d cases infeasible; the generator must cover both outcomes", infeasible, cases)
	}
}

// TestGreedyKConcurrent calls GreedyK from several goroutines at once on
// graphs of several sizes, so pooled demand and gain arrays come back at
// another n than they were last used at, under nil, allowed and alive
// masks, infeasible ones included. Every result must equal the one computed
// sequentially before the goroutines start. Then every result of one
// goroutine is overwritten, and the others' and a new call's must be as they
// were: no result shares memory with the pool or with another result.
func TestGreedyKConcurrent(t *testing.T) {
	type call struct {
		g              *graph.Graph
		k              int
		allowed, alive []bool
		want           []int
	}
	src := rng.New(29)
	var calls []call
	for _, n := range []int{6, 60, 200, 500} {
		g := gen.GNP(n, 5/float64(n), src.Split())
		draw := func(p float64) []bool {
			m := make([]bool, n)
			for v := range m {
				m[v] = src.Float64() < p
			}
			return m
		}
		// blocked disallows all of N+[0], so no allowed set covers node 0.
		blocked := make([]bool, n)
		for v := range blocked {
			blocked[v] = v != 0 && !g.HasEdge(0, v)
		}
		allowed, alive := draw(0.8), draw(0.9)
		masks := [][2][]bool{{nil, nil}, {allowed, nil}, {nil, alive}, {allowed, alive}, {blocked, nil}, {blocked, alive}}
		for _, k := range []int{1, 2} {
			for _, m := range masks {
				calls = append(calls, call{g: g, k: k, allowed: m[0], alive: m[1]})
			}
		}
	}
	feasible := 0
	for i := range calls {
		c := &calls[i]
		c.want = GreedyK(c.g, c.k, c.allowed, c.alive)
		if c.want != nil {
			feasible++
		}
	}
	if feasible == 0 || feasible == len(calls) {
		t.Fatalf("%d of %d calls feasible; the fixture must cover both outcomes", feasible, len(calls))
	}

	const workers, rounds = 4, 5
	results := make([][][]int, workers)
	var wg sync.WaitGroup
	for w := range results {
		results[w] = make([][]int, len(calls))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range calls {
					// Each worker walks the calls from its own offset, so
					// different sizes run side by side.
					i := (j + w*len(calls)/workers + r) % len(calls)
					c := calls[i]
					got := GreedyK(c.g, c.k, c.allowed, c.alive)
					if !reflect.DeepEqual(got, c.want) {
						t.Errorf("worker %d call %d (n=%d k=%d): GreedyK = %v, sequentially %v",
							w, i, c.g.N(), c.k, got, c.want)
						return
					}
					results[w][i] = got
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, set := range results[0] {
		for j := range set {
			set[j] = -1
		}
	}
	for i, c := range calls {
		for w := 1; w < workers; w++ {
			if !reflect.DeepEqual(results[w][i], c.want) {
				t.Fatalf("call %d: worker %d's result became %v after worker 0's were overwritten, want %v",
					i, w, results[w][i], c.want)
			}
		}
		if got := GreedyK(c.g, c.k, c.allowed, c.alive); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("call %d: GreedyK = %v after worker 0's results were overwritten, want %v", i, got, c.want)
		}
	}
}

// TestGreedyKPoolCarriesNoState puts garbage into greedyPool before each
// call: demand and gain arrays longer than n, with nonzero contents, gains
// high enough to outbid any real one. Every result must equal a fresh
// call's, made with a new greedyArrays in the pool. Each call first takes
// out what the previous call put back, so without -race the next Get on
// this goroutine returns the item just put; the race detector drops pooled
// items at random, so there a call may miss its garbage.
func TestGreedyKPoolCarriesNoState(t *testing.T) {
	swapIn := func(a *greedyArrays) {
		greedyPool.Get()
		greedyPool.Put(a)
	}
	garbage := func(n int) *greedyArrays {
		a := &greedyArrays{demand: make([]int32, n+17), gain: make([]int32, n+17)}
		for i := range a.demand {
			a.demand[i] = int32(i%3 + 1)
			a.gain[i] = int32(n + 2 + i)
		}
		return a
	}
	src := rng.New(37)
	calls := 0
	for _, n := range []int{8, 40, 150} {
		g := gen.GNP(n, 6/float64(n), src.Split())
		allowed, alive := make([]bool, n), make([]bool, n)
		for v := range allowed {
			allowed[v] = src.Intn(6) != 0
			alive[v] = src.Intn(8) != 0
		}
		for _, k := range []int{1, 2} {
			for _, m := range [][2][]bool{{nil, nil}, {allowed, nil}, {nil, alive}, {allowed, alive}} {
				if !kFeasible(g, k, m[0], m[1]) {
					continue // GreedyK returns before it takes arrays
				}
				calls++
				swapIn(new(greedyArrays))
				want := GreedyK(g, k, m[0], m[1])
				swapIn(garbage(n))
				if got := GreedyK(g, k, m[0], m[1]); !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d k=%d masks %v/%v: after garbage GreedyK = %v, fresh %v",
						n, k, m[0] != nil, m[1] != nil, got, want)
				}
			}
		}
	}
	if calls < 8 {
		t.Fatalf("only %d feasible calls; the fixture must exercise the pool", calls)
	}
}

func TestIsMaximalIndependent(t *testing.T) {
	// Other packages' MIS protocols are checked against this oracle, so it
	// must reject both ways a set can fail.
	g := gen.Path(5)
	if !IsMaximalIndependent(g, []int{0, 2, 4}) {
		t.Error("{0,2,4} is a maximal independent set of P5")
	}
	if IsMaximalIndependent(g, []int{0, 2}) {
		t.Error("{0,2} leaves node 4 undominated, so it is not maximal")
	}
	if IsMaximalIndependent(g, []int{0, 1, 3}) {
		t.Error("{0,1,3} contains the edge 0-1")
	}
}

func TestMinimumExactSmallCases(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		size int
	}{
		{"path4", gen.Path(4), 2},
		{"path7", gen.Path(7), 3},
		{"ring6", gen.Ring(6), 2},
		{"star9", gen.Star(9), 1},
		{"k5", gen.Complete(5), 1},
		{"grid3x3", gen.Grid(3, 3), 3},
	}
	for _, c := range cases {
		set := MinimumExact(c.g, nil)
		if set == nil {
			t.Fatalf("%s: no set found", c.name)
		}
		if !IsDominating(c.g, set, nil) {
			t.Fatalf("%s: exact set %v not dominating", c.name, set)
		}
		if len(set) != c.size {
			t.Errorf("%s: |MDS| = %d, want %d (set %v)", c.name, len(set), c.size, set)
		}
	}
}

// TestExactSearchesOnEmptyGraph: the empty set dominates the empty graph,
// so both searches find it, with weight 0, for every k, rather than
// answering "no dominating set exists" (nil, and nil with +Inf).
func TestExactSearchesOnEmptyGraph(t *testing.T) {
	g := graph.New(0)
	if set := MinimumExact(g, nil); set == nil || len(set) != 0 {
		t.Fatalf("MinimumExact(empty) = %#v, want the empty set", set)
	}
	for k := 1; k <= 3; k++ {
		set, weight := MinimumWeightExact(g, []float64{}, k)
		if set == nil || len(set) != 0 || weight != 0 {
			t.Fatalf("k=%d: MinimumWeightExact(empty) = %#v, %v, want the empty set and 0", k, set, weight)
		}
	}
}

func TestMinimumExactNeverBeatenByGreedy(t *testing.T) {
	src := rng.New(6)
	for trial := 0; trial < 20; trial++ {
		g := gen.GNP(18, 0.2, src)
		exact := MinimumExact(g, nil)
		greedy := Greedy(g)
		if exact == nil {
			t.Fatal("exact failed on unrestricted instance")
		}
		if len(exact) > len(greedy) {
			t.Fatalf("trial %d: exact %d > greedy %d", trial, len(exact), len(greedy))
		}
	}
}

func TestMinimumExactInfeasibleRestriction(t *testing.T) {
	g := gen.Path(3)
	allowed := []bool{true, false, false}
	if set := MinimumExact(g, allowed); set != nil {
		t.Fatalf("expected nil, got %v", set)
	}
}

func TestMinimumExactFujitaTrapSize(t *testing.T) {
	// The trap's minimum dominating set is exactly the k a-nodes.
	k := 3
	g, _ := gen.FujitaTrap(k)
	set := MinimumExact(g, nil)
	if len(set) != k {
		t.Fatalf("|MDS| = %d, want %d", len(set), k)
	}
	for i, v := range set {
		if v != 1+i {
			t.Fatalf("MDS = %v, want the a-nodes [1..%d]", set, k)
		}
	}
}

// BenchmarkMinimumExact times one minimum dominating set search: on
// FujitaTrap(6), the shape of E7's extractor, and on GNP n = 40 at p = 0.15.
func BenchmarkMinimumExact(b *testing.B) {
	fujita, _ := gen.FujitaTrap(6)
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"fujita6", fujita}, {"gnp40", gen.GNP(40, 0.15, rng.New(40))}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if MinimumExact(c.g, nil) == nil {
					b.Fatal("no dominating set")
				}
			}
		})
	}
}

// BenchmarkMinimumWeightExact times column generation's pricing step: a
// minimum-weight k-dominating set of GNP n = 40 at p = 0.15 under seeded
// float weights, at k = 1 and 2.
func BenchmarkMinimumWeightExact(b *testing.B) {
	src := rng.New(40)
	g := gen.GNP(40, 0.15, src.Split())
	weights := make([]float64, g.N())
	for v := range weights {
		weights[v] = src.Float64()
	}
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("gnp40/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if set, _ := MinimumWeightExact(g, weights, k); set == nil {
					b.Fatal("no k-dominating set")
				}
			}
		})
	}
}

func TestIsIndependent(t *testing.T) {
	g := gen.Path(4)
	if !IsIndependent(g, []int{0, 2}) {
		t.Error("{0,2} independent in path4")
	}
	if IsIndependent(g, []int{0, 1}) {
		t.Error("{0,1} not independent in path4")
	}
	if !IsIndependent(g, nil) {
		t.Error("empty set is independent")
	}
}

// BenchmarkGreedyK times one greedy k-dominating extraction on random unit
// disk graphs of the two shapes the service benchmark replans most: n = 512
// at r = 0.09 (patch-churn's graphs) and n = 2048 at r = 0.115
// (shard-large's). Graphs are redrawn until no node is isolated, so k = 2
// is feasible. The gnp cases are solve-heavy's base shape, GNP n = 256 at
// p = 0.13: unmasked; under an allowed mask that bars a random tenth of the
// nodes, the shape of every sched.GreedyPhase call; and under one that bars
// all of N+[u] for the last node u, the infeasible tail of the refiners'
// extension step at its costliest for the feasibility check, which scans
// the nodes in order.
func BenchmarkGreedyK(b *testing.B) {
	for _, c := range []struct {
		n int
		r float64
	}{{512, 0.09}, {2048, 0.115}} {
		src := rng.New(uint64(c.n))
		g, _ := gen.RandomUDG(c.n, 1, c.r, src.Split())
		for g.MinDegree() == 0 {
			g, _ = gen.RandomUDG(c.n, 1, c.r, src.Split())
		}
		for _, k := range []int{1, 2} {
			b.Run(fmt.Sprintf("udg/n=%d/k=%d", c.n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if GreedyK(g, k, nil, nil) == nil {
						b.Fatal("infeasible instance")
					}
				}
			})
		}
	}
	src := rng.New(256)
	g := gen.GNP(256, 0.13, src.Split())
	last := g.N() - 1
	allowed, blocked := make([]bool, g.N()), make([]bool, g.N())
	for v := range allowed {
		allowed[v] = src.Intn(10) > 0
		blocked[v] = v != last && !g.HasEdge(last, v)
	}
	for _, c := range []struct {
		name     string
		allowed  []bool
		feasible bool
	}{{"gnp/n=256/k=1", nil, true}, {"gnp/n=256/k=1/allowed", allowed, true}, {"gnp/n=256/k=1/infeasible", blocked, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if (GreedyK(g, 1, c.allowed, nil) != nil) != c.feasible {
					b.Fatalf("GreedyK feasible = %v, want %v", !c.feasible, c.feasible)
				}
			}
		})
	}
}
