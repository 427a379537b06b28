package shard_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/shard"
)

// checkPartition asserts the structural invariants every partitioner must
// deliver: each node owned exactly once, Assign consistent with ownership,
// halos exactly the out-of-shard neighbors of owned nodes, and local
// subgraphs ordered Nodes-then-Halo.
func checkPartition(t *testing.T, g *graph.Graph, p *shard.Partition) {
	t.Helper()
	owned := make([]int, g.N())
	for pos, sh := range p.Shards {
		if sh.Owned() == 0 {
			t.Fatalf("shard at position %d owns no nodes", pos)
		}
		for _, v := range sh.Nodes {
			owned[v]++
			if p.Assign[v] != pos {
				t.Fatalf("node %d owned by position %d but Assign says %d", v, pos, p.Assign[v])
			}
		}
		wantHalo := map[int]bool{}
		inShard := map[int]bool{}
		for _, v := range sh.Nodes {
			inShard[v] = true
		}
		for _, v := range sh.Nodes {
			for _, u := range g.Neighbors(v) {
				if !inShard[int(u)] {
					wantHalo[int(u)] = true
				}
			}
		}
		if len(wantHalo) != len(sh.Halo) {
			t.Fatalf("shard %d: halo has %d nodes, want %d", pos, len(sh.Halo), len(wantHalo))
		}
		for _, h := range sh.Halo {
			if !wantHalo[h] {
				t.Fatalf("shard %d: node %d in halo but not a boundary neighbor", pos, h)
			}
		}
		if !sort.IntsAreSorted(sh.Nodes) || !sort.IntsAreSorted(sh.Halo) {
			t.Fatalf("shard %d: nodes/halo not sorted", pos)
		}
		if len(sh.Orig) != len(sh.Nodes)+len(sh.Halo) || sh.Sub.N() != len(sh.Orig) {
			t.Fatalf("shard %d: local instance sized %d for %d+%d nodes", pos, sh.Sub.N(), len(sh.Nodes), len(sh.Halo))
		}
		for i, v := range sh.Nodes {
			if sh.Orig[i] != v {
				t.Fatalf("shard %d: Orig[%d] = %d, want owned node %d", pos, i, sh.Orig[i], v)
			}
		}
		for i, h := range sh.Halo {
			if sh.Orig[sh.Owned()+i] != h {
				t.Fatalf("shard %d: Orig[%d] = %d, want halo node %d", pos, sh.Owned()+i, sh.Orig[sh.Owned()+i], h)
			}
		}
	}
	for v, c := range owned {
		if c != 1 {
			t.Fatalf("node %d owned by %d shards", v, c)
		}
	}
}

// TestPartitionInvariants checks both partitioners across random UDG
// instances and shard counts.
func TestPartitionInvariants(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 8; trial++ {
		n := 20 + src.Intn(180)
		g, pts := gen.RandomUDG(n, 10, 2.2, src)
		for _, shards := range []int{1, 2, 4, 7} {
			for _, method := range []string{"bfs", "geom"} {
				p, err := shard.ByName(method, g, pts, shards, 42)
				if err != nil {
					t.Fatalf("%s/%d: %v", method, shards, err)
				}
				checkPartition(t, g, p)
			}
		}
	}
}

// TestPartitionDisconnected exercises the BFS partitioner's unreached-
// component fallback: a graph with more components than shards must still
// be fully covered.
func TestPartitionDisconnected(t *testing.T) {
	// Three disjoint paths of 5 nodes.
	var edges [][2]int
	for c := 0; c < 3; c++ {
		for i := 0; i < 4; i++ {
			edges = append(edges, [2]int{c*5 + i, c*5 + i + 1})
		}
	}
	g := graph.NewFromEdges(15, edges)
	p, err := shard.BFS(g, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, p)
}

// TestPartitionEmptyGraph pins that both partitioners answer the empty
// graph with the whole partition, which has no shards, for any shard count.
func TestPartitionEmptyGraph(t *testing.T) {
	g := graph.New(0)
	for _, shards := range []int{1, 4} {
		for _, method := range []string{"bfs", "geom"} {
			p, err := shard.ByName(method, g, []geom.Point{}, shards, 42)
			if err != nil {
				t.Fatalf("%s/%d: %v", method, shards, err)
			}
			if len(p.Shards) != 0 || len(p.Assign) != 0 {
				t.Fatalf("%s/%d: %d shards, %d assignments; want the empty partition",
					method, shards, len(p.Shards), len(p.Assign))
			}
		}
	}
}

// TestPartitionerDeterminism pins the determinism contract: same (graph,
// shards, seed) in, byte-identical partition out — node lists, halos,
// assignment, fingerprints.
func TestPartitionerDeterminism(t *testing.T) {
	src := rng.New(5)
	g, pts := gen.RandomUDG(150, 10, 2.0, src)
	budgets := make([]int, g.N())
	for v := range budgets {
		budgets[v] = 3 + v%4
	}
	for _, method := range []string{"bfs", "geom"} {
		a, err := shard.ByName(method, g, pts, 5, 97)
		if err != nil {
			t.Fatal(err)
		}
		b, err := shard.ByName(method, g, pts, 5, 97)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Assign, b.Assign) {
			t.Fatalf("%s: assignments differ across identical runs", method)
		}
		if len(a.Shards) != len(b.Shards) {
			t.Fatalf("%s: %d vs %d shards", method, len(a.Shards), len(b.Shards))
		}
		for i := range a.Shards {
			if !reflect.DeepEqual(a.Shards[i].Nodes, b.Shards[i].Nodes) ||
				!reflect.DeepEqual(a.Shards[i].Halo, b.Shards[i].Halo) {
				t.Fatalf("%s: shard %d differs across identical runs", method, i)
			}
			if a.Shards[i].Fingerprint(budgets) != b.Shards[i].Fingerprint(budgets) {
				t.Fatalf("%s: shard %d fingerprints differ", method, i)
			}
		}
	}
}

// TestShardFingerprintRenumberInvariant is the compositional-cache
// property: a shard's fingerprint depends only on its local instance, so
// renumbering the whole graph (here: reversing node IDs) leaves an
// untouched region's fingerprint intact.
func TestShardFingerprintRenumberInvariant(t *testing.T) {
	// A path 0-1-...-9 partitioned in half, then the same path with IDs
	// reversed: the "low" half of one equals the "high" half of the other.
	n := 10
	var edges, reversed [][2]int
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
		reversed = append(reversed, [2]int{n - 1 - i, n - 1 - (i + 1)})
	}
	g := graph.NewFromEdges(n, edges)
	budgets := make([]int, n)
	for v := range budgets {
		budgets[v] = 4
	}
	p1, err := shard.BFS(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Shards) != 2 {
		t.Skipf("partitioner produced %d shards on the path; need 2", len(p1.Shards))
	}
	// Renumber: v -> n-1-v. The path maps onto itself.
	g2 := graph.NewFromEdges(n, reversed)
	p2, err := shard.BFS(g2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fps1 := []string{p1.Shards[0].Fingerprint(budgets), p1.Shards[1].Fingerprint(budgets)}
	fps2 := []string{p2.Shards[0].Fingerprint(budgets), p2.Shards[1].Fingerprint(budgets)}
	sort.Strings(fps1)
	sort.Strings(fps2)
	if !reflect.DeepEqual(fps1, fps2) {
		t.Fatalf("renumbering changed local fingerprints: %v vs %v", fps1, fps2)
	}
}

// TestRebaseKeepsUntouchedShards pins the delta stability Rebase promises:
// removing an edge inside one region keeps every other shard's node set,
// halo, and fingerprint identical, and the shard Index values survive.
func TestRebaseKeepsUntouchedShards(t *testing.T) {
	src := rng.New(8)
	g, pts := gen.RandomUDG(160, 12, 2.0, src)
	p, err := shard.Geometric(g, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shards) < 3 {
		t.Skipf("only %d shards; need >= 3 for an untouched-shard assertion", len(p.Shards))
	}
	budgets := make([]int, g.N())
	for v := range budgets {
		budgets[v] = 3
	}
	// Remove one node owned deep inside shard 0 (no halo contact).
	victim := -1
	for _, v := range p.Shards[0].Nodes {
		inHalo := false
		for _, sh := range p.Shards[1:] {
			for _, h := range sh.Halo {
				if h == v {
					inHalo = true
				}
			}
		}
		if !inHalo {
			victim = v
			break
		}
	}
	if victim == -1 {
		t.Skip("no interior node in shard 0")
	}
	d := &graph.Delta{RemoveNodes: []int{victim}}
	g2, budgets2, mapping, err := d.Apply(g, budgets)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p.Rebase(g2, mapping)
	checkPartition(t, g2, p2)

	// The delta reaches the shards owning the victim or a neighbor of it:
	// the victim sits in the halo of exactly the latter.
	wasTouched := map[int]bool{p.Shards[p.Assign[victim]].Index: true}
	for _, u := range g.Neighbors(victim) {
		wasTouched[p.Shards[p.Assign[u]].Index] = true
	}
	byIndex := map[int]*shard.Shard{}
	for _, sh := range p2.Shards {
		byIndex[sh.Index] = sh
	}
	for _, old := range p.Shards {
		if wasTouched[old.Index] {
			continue
		}
		nw, ok := byIndex[old.Index]
		if !ok {
			t.Fatalf("untouched shard %d vanished after rebase", old.Index)
		}
		if old.Fingerprint(budgets) != nw.Fingerprint(budgets2) {
			t.Fatalf("untouched shard %d changed fingerprint after an interior delta", old.Index)
		}
	}
}

// BenchmarkPartition times the 4-shard partition of a unit-disk graph of the
// size the service's shard-large workload sends (n = 2048, r = 0.115). The
// service pays it on every sharded request; BenchmarkPipeline partitions once,
// outside its timed loop, so it never measures this.
func BenchmarkPartition(b *testing.B) {
	g, pts := gen.RandomUDG(2048, 1, 0.115, rng.New(3))
	for _, c := range []struct {
		name string
		part func() (*shard.Partition, error)
	}{
		{"bfs", func() (*shard.Partition, error) { return shard.BFS(g, 4, 1) }},
		{"geom", func() (*shard.Partition, error) { return shard.Geometric(g, pts, 4) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.part(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
