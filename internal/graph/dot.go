package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT emits the graph in Graphviz DOT format for visualization.
func WriteDOT(w io.Writer, g *Graph, name string) error {
	if name == "" {
		name = "G"
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "graph %q {\n  node [shape=circle];\n", name); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			// Isolated nodes would otherwise not appear at all.
			if _, err := fmt.Fprintf(bw, "  %d;\n", v); err != nil {
				return err
			}
		}
	}
	var werr error
	g.Edges(func(u, v int) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "  %d -- %d;\n", u, v)
	})
	if werr != nil {
		return werr
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
