package graph

import (
	"encoding/hex"
	"math/rand"
	"testing"
)

// randomEdgeList draws a simple random edge list over n nodes.
func randomEdgeList(n int, p float64, r *rand.Rand) [][2]int {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return edges
}

// TestFingerprintStableAcrossEdgeOrderings is the property test of the
// canonical hash contract: the same edge list, presented in any order and
// with either endpoint orientation, must fingerprint identically. (Isomorphism-insensitivity — relabeled node IDs —
// is explicitly out of scope.)
func TestFingerprintStableAcrossEdgeOrderings(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(40)
		edges := randomEdgeList(n, 0.2, r)
		want := NewFromEdges(n, edges).Fingerprint()

		for rep := 0; rep < 5; rep++ {
			shuffled := append([][2]int(nil), edges...)
			r.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			// Randomly flip endpoint orientation: {u,v} and {v,u} are the
			// same undirected edge.
			for i := range shuffled {
				if r.Intn(2) == 0 {
					shuffled[i][0], shuffled[i][1] = shuffled[i][1], shuffled[i][0]
				}
			}
			if got := NewFromEdges(n, shuffled).Fingerprint(); got != want {
				t.Fatalf("trial %d rep %d: fingerprint changed under edge reordering", trial, rep)
			}
		}
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	base := NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	cases := map[string]*Graph{
		"extra node":     NewFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		"missing edge":   NewFromEdges(4, [][2]int{{0, 1}, {1, 2}}),
		"different edge": NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {1, 3}}),
		"empty":          New(4),
	}
	want := base.Fingerprint()
	for name, g := range cases {
		if g.Fingerprint() == want {
			t.Errorf("%s: fingerprint collides with base graph", name)
		}
	}
}

// TestHasherKeyComponents pins that every request-key component —
// budgets, algorithm, parameters, seed — perturbs the sum, and that equal
// inputs agree.
func TestHasherKeyComponents(t *testing.T) {
	ring := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	g := NewFromEdges(5, ring)
	key := func(g *Graph, budgets []int, alg string, k int, kc float64, seed uint64) string {
		return NewHasher().
			Graph("graph", g).
			Ints("budgets", budgets).
			String("alg", alg).
			Int("k", k).
			Float("kconst", kc).
			Uint64("seed", seed).
			Sum()
	}
	base := key(g, []int{3, 3, 3, 3, 3}, "uniform", 1, 3, 7)
	if again := key(NewFromEdges(5, ring), []int{3, 3, 3, 3, 3}, "uniform", 1, 3, 7); again != base {
		t.Fatal("identical requests produced different keys")
	}
	variants := map[string]string{
		"budgets": key(g, []int{3, 3, 3, 3, 4}, "uniform", 1, 3, 7),
		"alg":     key(g, []int{3, 3, 3, 3, 3}, "general", 1, 3, 7),
		"k":       key(g, []int{3, 3, 3, 3, 3}, "uniform", 2, 3, 7),
		"kconst":  key(g, []int{3, 3, 3, 3, 3}, "uniform", 1, 2.5, 7),
		"seed":    key(g, []int{3, 3, 3, 3, 3}, "uniform", 1, 3, 8),
		"graph":   key(NewFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}), []int{3, 3, 3, 3, 3}, "uniform", 1, 3, 7),
	}
	seen := map[string]string{base: "base"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestHasherFraming pins the anti-concatenation property: moving bytes
// between adjacent fields must change the sum.
func TestHasherFraming(t *testing.T) {
	a := NewHasher().String("x", "ab").String("y", "c").Sum()
	b := NewHasher().String("x", "a").String("y", "bc").Sum()
	if a == b {
		t.Fatal("field framing does not prevent concatenation collisions")
	}
	if NewHasher().Ints("v", nil).Sum() == NewHasher().Sum() {
		t.Fatal("absent field indistinguishable from empty slice")
	}
}

// TestFingerprintGolden pins the exact bytes Fingerprint, Hasher and
// Delta.HashInto feed SHA-256. Cached keys and the fingerprints PATCH clients
// hold depend on them, so a change that moves any of these sums breaks every
// deployed cache and client; the values must only ever change on purpose.
func TestFingerprintGolden(t *testing.T) {
	g := NewFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	fp := g.Fingerprint()
	empty := New(3).Fingerprint()
	d := Delta{
		RemoveEdges: [][2]int{{0, 3}}, RemoveNodes: []int{5}, AddNodes: 2, NewBudgets: []int{4, 6},
		AddEdges: [][2]int{{5, 0}, {6, 4}}, SetBudgets: []BudgetUpdate{{Node: 1, Budget: 8}},
	}
	for _, c := range []struct{ name, got, want string }{
		{"fingerprint", hex.EncodeToString(fp[:]), "9f4ff88f80c3043f649c06566a41c487160ab47793064004cbfb48daa818b89b"},
		{"empty fingerprint", hex.EncodeToString(empty[:]), "59d5966c96af7ecad5c9d2918d6582d102b2c67f6b765ea28ac24371ab4f93be"},
		{"hasher", NewHasher().Graph("graph", g).Ints("budgets", []int{3, 1, 4, 1, 5, 9}).
			String("alg", "general").Int("k", 2).Float("kconst", 2.5).Uint64("seed", 7).Sum(),
			"4f6a7abecfc19912c62b41cccd287dcc2791bc7f28f18f0931408ccd4a0f2c78"},
		{"delta", d.HashInto(NewHasher().String("kind", "reconfig")).Sum(),
			"e5fb3827822427b1075a3a0c076d155430fe635f9515b65c326a61eb141fed60"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	g := NewFromEdges(1024, randomEdgeList(1024, 0.058, rand.New(rand.NewSource(1))))
	b.SetBytes(int64(16 * (g.M() + 1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSum = g.Fingerprint()
	}
}
