// Command graphgen emits graphs from the repository's generator families as
// plain edge lists (the format cmd/ltsched reads).
//
// Usage:
//
//	graphgen -family gnp -n 100 -p 0.1 [-seed 1] > g.edges
//	graphgen -family udg -n 200 -side 14 -radius 2.5
//	graphgen -family grid -rows 8 -cols 8
//	graphgen -family circulant -n 60 -d 6
//	graphgen -family fujita -k 5
//	graphgen -family planted -n 60 -d 4
//
// The grid and torus families tag their edge lists with a "# hint:"
// comment ("grid 8 8", "torus 5 10") that seeds the instance classifier's
// trial ordering downstream; the classifier re-verifies every claim, so
// the tag is an ordering aid, never trusted.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// params are the generator knobs; one struct so run is testable.
type params struct {
	family       string
	n            int
	p            float64
	side, radius float64
	rows, cols   int
	d, k         int
	seed         uint64
	dot          bool
}

// build generates the requested family and its structure hint ("" when the
// family has none worth tagging).
func build(f params) (*graph.Graph, string, error) {
	src := rng.New(f.seed)
	switch f.family {
	case "gnp":
		return gen.GNP(f.n, f.p, src), "", nil
	case "udg":
		g, _ := gen.RandomUDG(f.n, f.side, f.radius, src)
		return g, "", nil
	case "hudg":
		g, _, _ := gen.HeterogeneousUDG(f.n, f.side, f.radius/2, f.radius, src)
		return g, "", nil
	case "grid":
		return gen.Grid(f.rows, f.cols), fmt.Sprintf("grid %d %d", f.rows, f.cols), nil
	case "torus":
		return gen.Torus(f.rows, f.cols), fmt.Sprintf("torus %d %d", f.rows, f.cols), nil
	case "ring":
		return gen.Ring(f.n), "", nil
	case "path":
		return gen.Path(f.n), "", nil
	case "star":
		return gen.Star(f.n), "", nil
	case "complete":
		return gen.Complete(f.n), "", nil
	case "circulant":
		return gen.Circulant(f.n, f.d), "", nil
	case "tree":
		return gen.RandomTree(f.n, src), "", nil
	case "caterpillar":
		return gen.Caterpillar(f.n, f.k), "", nil
	case "fujita":
		g, _ := gen.FujitaTrap(f.k)
		return g, "", nil
	case "planted":
		g, _ := gen.PlantedDomatic(f.n, f.d, f.n/2, src)
		return g, "", nil
	}
	return nil, "", fmt.Errorf("unknown family %q", f.family)
}

// run generates and writes the graph: DOT, or a hint-tagged edge list.
func run(w io.Writer, f params) error {
	g, hint, err := build(f)
	if err != nil {
		return err
	}
	if f.dot {
		return graph.WriteDOT(w, g, f.family)
	}
	if hint != "" {
		if _, err := fmt.Fprintf(w, "%s %s\n", graph.HintPrefix, hint); err != nil {
			return err
		}
	}
	return graph.WriteEdgeList(w, g)
}

func main() {
	var f params
	flag.StringVar(&f.family, "family", "gnp", "gnp|udg|hudg|grid|torus|ring|path|star|complete|circulant|tree|caterpillar|fujita|planted")
	flag.IntVar(&f.n, "n", 100, "node count")
	flag.Float64Var(&f.p, "p", 0.1, "edge probability (gnp)")
	flag.Float64Var(&f.side, "side", 10, "deployment square side (udg)")
	flag.Float64Var(&f.radius, "radius", 1.5, "communication radius (udg)")
	flag.IntVar(&f.rows, "rows", 8, "grid/torus rows")
	flag.IntVar(&f.cols, "cols", 8, "grid/torus cols")
	flag.IntVar(&f.d, "d", 4, "degree (circulant) or planted domatic number")
	flag.IntVar(&f.k, "k", 4, "trap parameter (fujita) / legs (caterpillar)")
	flag.Uint64Var(&f.seed, "seed", 1, "random seed")
	flag.BoolVar(&f.dot, "dot", false, "emit Graphviz DOT instead of an edge list")
	flag.Parse()

	if err := run(os.Stdout, f); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}
