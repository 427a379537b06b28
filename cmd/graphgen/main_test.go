package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/instance"
)

// TestHintTaggedFamiliesRoundTrip is the generator→classifier smoke test:
// for each structured family, the emitted edge list must carry a hint the
// reader surfaces, the hint must parse, and the classifier must certify the
// advertised structure on the round-tripped graph.
func TestHintTaggedFamiliesRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		f      params
		hint   string
		class  instance.Class
		n      int
		family string
	}{
		{"grid", params{family: "grid", rows: 6, cols: 9}, "grid 6 9", instance.Grid, 54, "grid"},
		{"torus", params{family: "torus", rows: 5, cols: 7}, "torus 5 7", instance.Torus, 35, "torus"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := run(&buf, tc.f); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.HasPrefix(buf.String(), graph.HintPrefix+" "+tc.hint+"\n") {
			t.Fatalf("%s: output does not lead with the hint comment:\n%.80s", tc.name, buf.String())
		}
		g, hint, err := graph.ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hint != tc.hint {
			t.Fatalf("%s: round-tripped hint %q, want %q", tc.name, hint, tc.hint)
		}
		if g.N() != tc.n {
			t.Fatalf("%s: n = %d, want %d", tc.name, g.N(), tc.n)
		}
		h := instance.ParseHint(hint)
		if h.Family != tc.family {
			t.Fatalf("%s: parsed hint family %q, want %q", tc.name, h.Family, tc.family)
		}
		m := instance.New(g, make([]int, g.N())).WithHint(h).Meta()
		if m.Class != tc.class {
			t.Fatalf("%s: classified as %v, want %v", tc.name, m.Class, tc.class)
		}
		if m.Rows*m.Cols != tc.n {
			t.Fatalf("%s: certified dims %dx%d do not cover %d nodes", tc.name, m.Rows, m.Cols, tc.n)
		}
	}
}

// TestUnstructuredFamiliesUntagged: only grid and torus edge lists carry a
// hint; the random families, unit-disk ones included, stay untagged.
func TestUnstructuredFamiliesUntagged(t *testing.T) {
	for _, f := range []params{
		{family: "gnp", n: 30, p: 0.2, seed: 3},
		{family: "udg", n: 40, side: 8, radius: 2, seed: 3},
		{family: "hudg", n: 40, side: 8, radius: 2, seed: 3},
	} {
		var buf bytes.Buffer
		if err := run(&buf, f); err != nil {
			t.Fatal(err)
		}
		g, hint, err := graph.ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("%s: %v", f.family, err)
		}
		if hint != "" || g.N() != f.n {
			t.Fatalf("%s: hint %q, n %d, want no hint and %d nodes", f.family, hint, g.N(), f.n)
		}
	}
}

func TestUnknownFamilyErrors(t *testing.T) {
	if err := run(&bytes.Buffer{}, params{family: "frob"}); err == nil {
		t.Fatal("unknown family accepted")
	}
}
