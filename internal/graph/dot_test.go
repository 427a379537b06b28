package graph

import (
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	g := NewFromEdges(4, [][2]int{{0, 1}, {1, 2}})
	var sb strings.Builder
	if err := WriteDOT(&sb, g, "demo"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"graph \"demo\" {",
		"0 -- 1;",
		"1 -- 2;",
		"3;", // isolated node still rendered
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTDefaultName(t *testing.T) {
	var sb strings.Builder
	if err := WriteDOT(&sb, New(1), ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "graph \"G\"") {
		t.Fatalf("default name missing:\n%s", sb.String())
	}
}
