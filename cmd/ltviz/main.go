// Command ltviz renders a random unit-disk deployment and the first valid
// dominating class of an Algorithm 1 run as an SVG file.
//
// Usage:
//
//	ltviz -n 200 -side 14 -radius 3 -o deployment.svg
//	ltviz -n 200 -slot 5 -o slot5.svg     (highlight the slot-5 active set)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/solver"
	"repro/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ltviz:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 200, "node count")
	side := flag.Float64("side", 14, "deployment square side")
	radius := flag.Float64("radius", 3, "communication radius")
	b := flag.Int("b", 3, "uniform battery")
	slot := flag.Int("slot", 0, "time slot whose active set to highlight")
	seed := flag.Uint64("seed", 1, "random seed")
	outPath := flag.String("o", "-", "output file (\"-\" = stdout)")
	width := flag.Int("width", 800, "SVG width in pixels")
	flag.Parse()

	src := rng.New(*seed)
	g, pts := gen.RandomUDG(*n, *side, *radius, src)
	budgets := make([]int, g.N())
	for i := range budgets {
		budgets[i] = *b
	}
	in := instance.New(g, budgets)
	s, err := solver.Solve(in, solver.Spec{Name: solver.NameUniform},
		solver.Options{Tries: 30, Src: src.Split()})
	if err != nil {
		return err
	}
	active := s.ActiveAt(*slot)

	var w io.Writer = os.Stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	title := fmt.Sprintf("n=%d radius=%.1f lifetime=%d slot=%d active=%d",
		*n, *radius, s.Lifetime(), *slot, len(active))
	return viz.WriteSVG(w, g, pts, viz.Options{
		Width:     *width,
		Highlight: active,
		Title:     title,
	})
}
