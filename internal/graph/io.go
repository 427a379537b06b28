package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes g in a plain text format:
//
//	# comment lines start with '#'
//	n <N>
//	<u> <v>        (one edge per line, u < v)
//
// The format round-trips through ReadEdgeList and is what cmd/graphgen emits.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v int) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// HintPrefix is the comment prefix under which edge lists may carry a
// structure hint ("# hint: grid 8 8").
const HintPrefix = "# hint:"

// ReadEdgeList parses the format written by WriteEdgeList. Blank lines and
// lines starting with '#' are ignored. The "n <N>" header must precede all
// edges. When the stream carries a "# hint: <payload>" comment
// (cmd/graphgen tags its grid/torus/udg families), the trimmed payload of
// the first such line is returned alongside the graph, else "". The hint is
// free-form advice for instance.ParseHint — this layer does not interpret
// it.
func ReadEdgeList(r io.Reader) (*Graph, string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	n := -1
	var edges [][2]int
	var lines []int // source line of each edge, for FromEdges' errors
	hint := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if hint == "" && strings.HasPrefix(line, HintPrefix) {
				hint = strings.TrimSpace(strings.TrimPrefix(line, HintPrefix))
			}
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if n >= 0 {
				return nil, "", fmt.Errorf("graph: line %d: duplicate node-count header", lineNo)
			}
			if len(fields) != 2 {
				return nil, "", fmt.Errorf("graph: line %d: malformed header %q", lineNo, line)
			}
			var err error
			n, err = strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, "", fmt.Errorf("graph: line %d: bad node count %q", lineNo, fields[1])
			}
			continue
		}
		if n < 0 {
			return nil, "", fmt.Errorf("graph: line %d: edge before \"n <N>\" header", lineNo)
		}
		if len(fields) != 2 {
			return nil, "", fmt.Errorf("graph: line %d: malformed edge %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, "", fmt.Errorf("graph: line %d: bad endpoint %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, "", fmt.Errorf("graph: line %d: bad endpoint %q", lineNo, fields[1])
		}
		edges = append(edges, [2]int{u, v})
		lines = append(lines, lineNo)
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	if n < 0 {
		return nil, "", fmt.Errorf("graph: missing \"n <N>\" header")
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		var bad *edgeError
		if errors.As(err, &bad) {
			err = fmt.Errorf("graph: line %d: edge {%d,%d}: %s", lines[bad.index], bad.u, bad.v, bad.msg)
		}
		return nil, "", err
	}
	return g, hint, nil
}
