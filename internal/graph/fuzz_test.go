package graph

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks that arbitrary input never panics the parser and
// that successfully parsed graphs always validate and round-trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("n 3\n0 1\n1 2\n")
	f.Add("# comment\nn 0\n")
	f.Add("n 2\n0 1")
	f.Add("")
	f.Add("n 5\n4 0\n# x\n\n3 2\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, _, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v\ninput: %q", err, input)
		}
		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err != nil {
			t.Fatal(err)
		}
		back, _, err := ReadEdgeList(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip changed size: %v vs %v", back, g)
		}
	})
}

// FuzzDeltaApply decodes arbitrary JSON as a Delta and applies it to a fixed
// 8-node graph. Apply must never panic or mutate its inputs; on error all
// three results are nil; on success the graph is valid and fingerprints
// like the shadow model's rebuild of the same change. Deltas adding more
// than 64 nodes are skipped: Apply trusts its caller to bound the node
// count, as the service's PATCH handler does before applying.
func FuzzDeltaApply(f *testing.F) {
	g := NewFromEdges(8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {0, 4}})
	budgets := []int{1, 2, 3, 4, 5, 6, 7, 8}
	fp := g.Fingerprint()
	seeds := []Delta{{}, {
		RemoveEdges: [][2]int{{1, 2}}, RemoveNodes: []int{0}, AddNodes: 2, NewBudgets: []int{7, 8},
		AddEdges: [][2]int{{3, 7}, {7, 8}}, SetBudgets: []BudgetUpdate{{Node: 3, Budget: 99}},
	}}
	for _, tc := range deltaErrorCases {
		seeds = append(seeds, tc.d)
	}
	for _, d := range seeds {
		data, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Delta
		if json.Unmarshal(data, &d) != nil || d.AddNodes > 64 {
			return
		}
		digest := d.HashInto(NewHasher()).Sum()
		in := slices.Clone(budgets)
		g2, budgets2, mapping, err := d.Apply(g, in)
		if g.Fingerprint() != fp || !slices.Equal(in, budgets) || d.HashInto(NewHasher()).Sum() != digest {
			t.Fatalf("Apply mutated its inputs\ndelta: %s", data)
		}
		if err != nil {
			if g2 != nil || budgets2 != nil || mapping != nil {
				t.Fatalf("Apply returned results with error %v\ndelta: %s", err, data)
			}
			return
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("applied graph invalid: %v\ndelta: %s", err, data)
		}
		sh := shadowOf(g)
		sh.apply(d)
		if g2.Fingerprint() != sh.graph().Fingerprint() {
			t.Fatalf("applied graph %v differs from the shadow model's\ndelta: %s", g2, data)
		}
	})
}
