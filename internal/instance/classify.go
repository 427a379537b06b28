package instance

import (
	"repro/internal/graph"
)

// Classify runs the structure-detection pass over g: grid and torus
// recognition by degree-sequence gating plus an explicit coordinate
// embedding that is verified edge-for-edge, and tree detection. hint
// (possibly zero) only orders the embedding trials — a wrong hint cannot
// produce a wrong Class, because every positive classification is certified
// by full adjacency verification. Cost is O(n + m) for the gates and
// O(n + m) per embedding trial, with a constant number of trials.
func Classify(g *graph.Graph, hint Hint) *Meta {
	n := g.N()
	m := &Meta{}
	connected := g.Connected()

	if rows, cols, coords := detectGrid(g, hint, connected); coords != nil {
		m.Class, m.Rows, m.Cols, m.Coords = Grid, rows, cols, coords
		return m
	}
	if rows, cols, coords := detectTorus(g, hint, connected); coords != nil {
		m.Class, m.Rows, m.Cols, m.Coords = Torus, rows, cols, coords
		return m
	}
	// A connected graph with n - 1 edges is a tree.
	if connected && n > 0 && g.M() == n-1 {
		m.Class = Tree
	}
	return m
}

// dims is one (rows, cols) candidate for an embedding trial.
type dims struct{ rows, cols int }

// detectGrid recognizes rows×cols grid graphs (both dimensions >= 2)
// under arbitrary node relabeling. The degree histogram gates cheaply and
// pins the dimensions: a grid has exactly four degree-2 corners,
// 2(rows+cols)-8 degree-3 border nodes, and (rows-2)(cols-2) degree-4
// interior nodes, so rows+cols and rows*cols are both known and the
// dimensions are the roots of one quadratic. The embedding fill then
// assigns coordinates outward from a corner, and verify certifies every
// edge, so a non-grid can never pass.
func detectGrid(g *graph.Graph, hint Hint, connected bool) (int, int, []int32) {
	n := g.N()
	if n < 4 || !connected {
		return 0, 0, nil
	}
	// Degree gate: count degrees; only 2/3/4 allowed, exactly 4 corners.
	var d2, d3, d4 int
	corner := -1
	for v := 0; v < n; v++ {
		switch g.Degree(v) {
		case 2:
			d2++
			corner = v
		case 3:
			d3++
		case 4:
			d4++
		default:
			return 0, 0, nil
		}
	}
	if d2 != 4 || d2+d3+d4 != n {
		return 0, 0, nil
	}
	// rows+cols = (d3+8)/2, rows*cols = n; solve the quadratic over the
	// integers.
	if (d3+8)%2 != 0 {
		return 0, 0, nil
	}
	s := (d3 + 8) / 2
	r1, r2, ok := intRoots(s, n)
	if !ok || r1 < 2 {
		return 0, 0, nil
	}
	if d4 != (r1-2)*(r2-2) {
		return 0, 0, nil
	}
	trials := []dims{{r1, r2}}
	if r1 != r2 {
		trials = append(trials, dims{r2, r1})
	}
	// A matching hint is redundant (dimensions are pinned by the
	// histogram) but promotes its orientation to the first trial.
	if hint.Family == "grid" && hint.Rows >= 2 && hint.Cols >= 2 &&
		hint.Rows*hint.Cols == n && hint.Rows+hint.Cols == s && hint.Rows != r1 {
		trials[0], trials[1] = trials[1], trials[0]
	}
	nbrs := g.Neighbors(corner)
	for _, t := range trials {
		for swap := 0; swap < 2; swap++ {
			a, b := int(nbrs[0]), int(nbrs[1])
			if swap == 1 {
				a, b = b, a
			}
			if coords := fill(g, t.rows, t.cols, corner, a, b, false); coords != nil {
				return t.rows, t.cols, coords
			}
		}
	}
	return 0, 0, nil
}

// intRoots returns the integer roots (r1 <= r2) of x^2 - s*x + p = 0.
func intRoots(s, p int) (int, int, bool) {
	disc := s*s - 4*p
	if disc < 0 {
		return 0, 0, false
	}
	q := isqrt(disc)
	if q*q != disc || (s-q)%2 != 0 {
		return 0, 0, false
	}
	return (s - q) / 2, (s + q) / 2, true
}

func isqrt(x int) int {
	if x < 0 {
		return 0
	}
	r := 0
	for r*r <= x {
		r++
	}
	return r - 1
}

// uniqueCommon returns the unique unassigned common neighbor of u and v,
// or ok=false when there is none or more than one.
func uniqueCommon(g *graph.Graph, u, v int, assigned func(int) bool) (int, bool) {
	found, count := -1, 0
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		switch {
		case nu[i] < nv[j]:
			i++
		case nu[i] > nv[j]:
			j++
		default:
			w := int(nu[i])
			if !assigned(w) {
				found = w
				count++
			}
			i++
			j++
		}
	}
	return found, count == 1
}

// verifyEmbedding is the certificate: it checks that under coords, every
// node's actual neighbor set equals exactly the grid (or torus, with
// wraparound) neighborhood, and that the total edge count matches. Only
// after this can Classify report Grid or Torus, which is what makes false
// positives impossible regardless of how the fill got here.
func verifyEmbedding(g *graph.Graph, rows, cols int, coords []int32, wrap bool) bool {
	n := g.N()
	if len(coords) != n {
		return false
	}
	cell := make([]int32, rows*cols)
	for i := range cell {
		cell[i] = -1
	}
	for v := 0; v < n; v++ {
		p := coords[v]
		if p < 0 || int(p) >= rows*cols || cell[p] != -1 {
			return false
		}
		cell[p] = int32(v)
	}
	wantEdges := 0
	var expect []int32
	for v := 0; v < n; v++ {
		r, c := int(coords[v])/cols, int(coords[v])%cols
		expect = expect[:0]
		push := func(rr, cc int) {
			if wrap {
				rr, cc = (rr+rows)%rows, (cc+cols)%cols
			} else if rr < 0 || rr >= rows || cc < 0 || cc >= cols {
				return
			}
			expect = append(expect, cell[rr*cols+cc])
		}
		push(r-1, c)
		push(r+1, c)
		push(r, c-1)
		push(r, c+1)
		got := g.Neighbors(v)
		if len(got) != len(expect) {
			return false
		}
		// Insertion-sort the ≤ 4 expected neighbors and compare against the
		// sorted adjacency slot for slot — set equality without a search
		// per edge.
		for i := 1; i < len(expect); i++ {
			for j := i; j > 0 && expect[j] < expect[j-1]; j-- {
				expect[j], expect[j-1] = expect[j-1], expect[j]
			}
		}
		for i, w := range expect {
			if got[i] != w {
				return false
			}
		}
		wantEdges += len(expect)
	}
	return wantEdges == 2*g.M()
}

// detectTorus recognizes rows×cols tori (both dimensions >= 3) under
// arbitrary relabeling. The gate is sharp — connected, 4-regular, and
// m == 2n — and then each factorization n = rows*cols (rows <= cols,
// rows >= 3, hinted factorization first) is tried with each ordered pair
// of node 0's neighbors as ((0,1), (1,0)). Unlike the grid there is no
// degree gradient to steer the fill, so here fill's backtracking does
// branch; wrong branches die on the unique-common-neighbor constraints
// within a row, and the final verifyEmbedding certificate keeps false
// positives impossible.
func detectTorus(g *graph.Graph, hint Hint, connected bool) (int, int, []int32) {
	n := g.N()
	if n < 9 || !connected || g.M() != 2*n {
		return 0, 0, nil
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) != 4 {
			return 0, 0, nil
		}
	}
	var trials []dims
	for r := 3; r*r <= n; r++ {
		if n%r == 0 && n/r >= 3 {
			trials = append(trials, dims{r, n / r})
			if r != n/r {
				trials = append(trials, dims{n / r, r})
			}
		}
	}
	if hint.Family == "torus" && hint.Rows >= 3 && hint.Cols >= 3 && hint.Rows*hint.Cols == n {
		for i, t := range trials {
			if t.rows == hint.Rows && t.cols == hint.Cols && i > 0 {
				trials[0], trials[i] = trials[i], trials[0]
			}
		}
	}
	nbrs := g.Neighbors(0)
	for _, t := range trials {
		for _, a32 := range nbrs {
			for _, b32 := range nbrs {
				a, b := int(a32), int(b32)
				if a == b {
					continue
				}
				if coords := fill(g, t.rows, t.cols, 0, a, b, true); coords != nil {
					return t.rows, t.cols, coords
				}
			}
		}
	}
	return 0, 0, nil
}

// filler carries the backtracking state of one embedding trial.
type filler struct {
	g          *graph.Graph
	rows, cols int
	coords     []int32
	cell       []int32
	steps      int // per-trial budget: a non-lattice must fail fast, not wander
}

// fillStepFactor bounds one embedding trial at fillStepFactor·n steps.
const fillStepFactor = 64

func (f *filler) assigned(v int) bool { return f.coords[v] != -1 }

func (f *filler) assign(r, c, v int) bool {
	p := r*f.cols + c
	if f.coords[v] != -1 || f.cell[p] != -1 {
		return false
	}
	f.coords[v] = int32(p)
	f.cell[p] = int32(v)
	return true
}

func (f *filler) unassign(r, c, v int) {
	f.coords[v] = -1
	f.cell[r*f.cols+c] = -1
}

// fill is the one embedding fill for grids (wrap false) and tori (wrap
// true). It puts origin at (0,0), a at (0,1), b at (1,0), and (1,1) at the
// unique unassigned common neighbor of a and b. It then fills rows 0 and 1
// left to right in lockstep, backtracking over the candidate continuations
// of row 0; the paired row-1 cell must be a unique common neighbor, which
// kills wrong branches within a step or two. Rows 2.. follow row-major,
// backtracking over the candidates for each row's first cell; every other
// cell is the unique unassigned common neighbor of the cells above and to
// its left. On a grid every step of the fill is forced: each branch point
// has exactly one unassigned candidate, so a trial that can verify never
// backtracks. verifyEmbedding certifies the result.
func fill(g *graph.Graph, rows, cols, origin, a, b int, wrap bool) []int32 {
	n := g.N()
	f := &filler{g: g, rows: rows, cols: cols,
		coords: make([]int32, n), cell: make([]int32, rows*cols),
		steps: fillStepFactor * n}
	for i := range f.coords {
		f.coords[i] = -1
	}
	for i := range f.cell {
		f.cell[i] = -1
	}
	if !f.assign(0, 0, origin) || !f.assign(0, 1, a) || !f.assign(1, 0, b) {
		return nil
	}
	d, ok := uniqueCommon(g, a, b, f.assigned)
	if !ok || !f.assign(1, 1, d) {
		return nil
	}
	if !f.fillTopPair(2) {
		return nil
	}
	if !verifyEmbedding(g, rows, cols, f.coords, wrap) {
		return nil
	}
	return f.coords
}

// fillTopPair fills columns c.. of rows 0 and 1, then hands off to
// fillRows. For each column, the candidates for (0,c) are the unassigned
// neighbors of (0,c-1); the paired (1,c) must then be the unique
// unassigned common neighbor of (1,c-1) and the chosen (0,c).
func (f *filler) fillTopPair(c int) bool {
	if f.steps--; f.steps < 0 {
		return false
	}
	if c == f.cols {
		return f.fillRows(2)
	}
	prevTop := int(f.cell[c-1])
	prevBot := int(f.cell[f.cols+c-1])
	for _, w32 := range f.g.Neighbors(prevTop) {
		top := int(w32)
		if f.assigned(top) {
			continue
		}
		if !f.assign(0, c, top) {
			continue
		}
		bot, ok := uniqueCommon(f.g, prevBot, top, f.assigned)
		if ok && f.assign(1, c, bot) {
			if f.fillTopPair(c + 1) {
				return true
			}
			f.unassign(1, c, bot)
		}
		f.unassign(0, c, top)
	}
	return false
}

// fillRows fills rows r.. row-major. The first cell of each row
// backtracks over the unassigned neighbors of the cell above; the rest of
// the row is forced by unique common neighbors.
func (f *filler) fillRows(r int) bool {
	if f.steps--; f.steps < 0 {
		return false
	}
	if r == f.rows {
		return true
	}
	above := int(f.cell[(r-1)*f.cols])
	for _, w32 := range f.g.Neighbors(above) {
		first := int(w32)
		if f.assigned(first) {
			continue
		}
		if !f.assign(r, 0, first) {
			continue
		}
		if f.fillRowRest(r, 1) && f.fillRows(r+1) {
			return true
		}
		f.unassignRow(r)
	}
	return false
}

// fillRowRest forces cells (r,1).. from unique common neighbors of the
// cell above and the cell to the left.
func (f *filler) fillRowRest(r, c int) bool {
	for ; c < f.cols; c++ {
		if f.steps--; f.steps < 0 {
			return false
		}
		v, ok := uniqueCommon(f.g, int(f.cell[(r-1)*f.cols+c]), int(f.cell[r*f.cols+c-1]), f.assigned)
		if !ok || !f.assign(r, c, v) {
			return false
		}
	}
	return true
}

// unassignRow clears every assigned cell of row r (partial fills
// included) so the caller can try the next branch.
func (f *filler) unassignRow(r int) {
	for c := 0; c < f.cols; c++ {
		if v := f.cell[r*f.cols+c]; v != -1 {
			f.unassign(r, c, int(v))
		}
	}
}
