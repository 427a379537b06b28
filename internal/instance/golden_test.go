package instance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// classifyGolden is the SHA-256 of TestClassifyGolden's transcript. The grid
// solver's schedule depends on the certified Coords, so a change to the
// embedding fill that moves any of them moves this digest.
const classifyGolden = "665b6b52e8284a6a345a33264d4424c5a673647f01aa5a7bbde69aecddf89658"

// rewire returns g with one degree-preserving double edge swap drawn from
// src: edges {a,b} and {c,d} become {a,d} and {c,b}. It returns g unchanged
// when no swap keeps the graph simple within a bounded number of draws.
func rewire(g *graph.Graph, src *rng.Source) *graph.Graph {
	var edges [][2]int
	g.Edges(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	if len(edges) < 2 {
		return g
	}
	for try := 0; try < 100; try++ {
		i, j := src.Intn(len(edges)), src.Intn(len(edges))
		a, b := edges[i][0], edges[i][1]
		c, d := edges[j][0], edges[j][1]
		if src.Bool() {
			c, d = d, c
		}
		if i == j || a == c || a == d || b == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
			continue
		}
		out := append([][2]int(nil), edges...)
		out[i], out[j] = [2]int{a, d}, [2]int{c, b}
		return graph.NewFromEdges(g.N(), out)
	}
	return g
}

// TestClassifyGolden pins Class, Rows, Cols and Coords over a fixed corpus:
// every grid and torus up to 13×13, each plain, relabeled by a seeded
// permutation and rewired by one degree-preserving swap, plus GNP graphs,
// UDGs, trees and rings. Each is classified with no hint, a matching hint, a
// transposed hint and a lying hint (the other lattice family).
func TestClassifyGolden(t *testing.T) {
	type entry struct {
		name       string
		g          *graph.Graph
		family     string
		rows, cols int
	}
	src := rng.New(29)
	var corpus []entry
	lattice := func(family string, lo int, build func(r, c int) *graph.Graph) {
		for r := lo; r <= 13; r++ {
			for c := lo; c <= 13; c++ {
				g := build(r, c)
				name := fmt.Sprintf("%s%dx%d", family, r, c)
				corpus = append(corpus,
					entry{name, g, family, r, c},
					entry{name + "/relabel", relabel(g, src.Perm(g.N())), family, r, c},
					entry{name + "/rewire", rewire(g, src.Split()), family, r, c})
			}
		}
	}
	lattice("grid", 2, gen.Grid)
	lattice("torus", 3, gen.Torus)
	// Unstructured graphs carry a grid claim on a factorization of n, so
	// every hint below is a lie for them.
	other := func(name string, g *graph.Graph) {
		r := 1
		for f := 2; f*f <= g.N(); f++ {
			if g.N()%f == 0 {
				r = f
			}
		}
		corpus = append(corpus, entry{name, g, "grid", r, g.N() / r})
	}
	for _, n := range []int{16, 36, 60, 100} {
		for _, p := range []float64{0.05, 0.15, 0.3} {
			other(fmt.Sprintf("gnp%d/%.2f", n, p), gen.GNP(n, p, src.Split()))
		}
		udg, _ := gen.RandomUDG(n, 6, 1.5, src.Split())
		other(fmt.Sprintf("udg%d", n), udg)
		other(fmt.Sprintf("tree%d", n), gen.RandomTree(n, src.Split()))
		other(fmt.Sprintf("ring%d", n), gen.Ring(n))
	}

	h := sha256.New()
	var buf []byte
	for _, e := range corpus {
		lie := "torus"
		if e.family == "torus" {
			lie = "grid"
		}
		for _, hint := range []Hint{
			{},
			{Family: e.family, Rows: e.rows, Cols: e.cols},
			{Family: e.family, Rows: e.cols, Cols: e.rows},
			{Family: lie, Rows: e.rows, Cols: e.cols},
		} {
			m := Classify(e.g, hint)
			buf = fmt.Appendf(buf[:0], "%s [%s] %v %d %d:", e.name, hint, m.Class, m.Rows, m.Cols)
			for _, p := range m.Coords {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
			}
			h.Write(append(buf, '\n'))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != classifyGolden {
		t.Fatalf("classification transcript over %d graphs hashes to %s, want %s", len(corpus), got, classifyGolden)
	}
}
