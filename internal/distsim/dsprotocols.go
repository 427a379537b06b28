package distsim

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// MISNode is the per-node program of Luby's randomized maximal independent
// set algorithm, which the paper's related-work section recounts as the
// classical O(log n)-round route to a constant-factor dominating set in unit
// disk graphs (every MIS is a dominating set). Each Luby round costs three
// broadcast rounds here:
//
//	round 3i:   competing nodes broadcast a fresh random priority
//	round 3i+1: local maxima declare themselves IN ("won")
//	round 3i+2: neighbors of winners retire and say "retired"; the rest
//	            loop back with a fresh priority
//
// After the run, In reports membership.
type MISNode struct {
	id    int
	src   *rng.Source
	state int8 // 0 competing, 1 in, -1 out
	phase int8 // position within the 3-broadcast round
	prio  uint64
	In    bool
}

type misPrio struct{ p uint64 }
type misWon struct{}
type misRetired struct{}

// NewMISNodes builds one MISNode per node with independent randomness.
func NewMISNodes(n int, sources []*rng.Source) []*MISNode {
	if len(sources) != n {
		panic(fmt.Sprintf("distsim: %d sources for %d nodes", len(sources), n))
	}
	nodes := make([]*MISNode, n)
	for v := range nodes {
		nodes[v] = &MISNode{id: v, src: sources[v]}
	}
	return nodes
}

// Start broadcasts the first priority.
func (m *MISNode) Start() any {
	m.prio = m.src.Uint64()
	return misPrio{m.prio}
}

// Round implements the three-phase Luby round.
func (m *MISNode) Round(received []any) (any, bool) {
	switch m.phase {
	case 0: // priorities received; am I the local maximum?
		m.phase = 1
		win := true
		for i, msg := range received {
			if pr, ok := msg.(misPrio); ok {
				if pr.p > m.prio || (pr.p == m.prio && i < m.id) {
					win = false
					break
				}
			}
		}
		if win {
			m.state = 1
			m.In = true
			return misWon{}, false
		}
		return nil, false
	case 1: // winners announced; retire if a neighbor won
		m.phase = 2
		if m.state == 1 {
			return nil, true // IN, done
		}
		for _, msg := range received {
			if _, ok := msg.(misWon); ok {
				m.state = -1
				return misRetired{}, true
			}
		}
		return nil, false
	default: // start the next Luby round with a fresh priority
		m.phase = 0
		m.prio = m.src.Uint64()
		return misPrio{m.prio}, false
	}
}

// MISSet extracts the independent set from a finished run.
func MISSet(nodes []*MISNode) []int {
	var out []int
	for v, m := range nodes {
		if m.In {
			out = append(out, v)
		}
	}
	return out
}

// GreedyDSNode is the per-node program of a distributed greedy
// dominating-set algorithm in the spirit of the span-based distributed
// greedies of the paper's related work (Jia–Rajaraman–Suel and the greedy
// analysed by Kuhn–Wattenhofer): in each iteration every still-uncovered
// node computes its span — the number of uncovered nodes in its closed
// neighborhood — and joins the dominating set iff its (span, id) pair is
// undefeated in its 2-hop neighborhood. Covered nodes retire (a
// simplification trading a constant in quality for protocol simplicity).
// One iteration costs four broadcast rounds:
//
//	round 4i:   uncovered nodes broadcast "alive"
//	round 4i+1: broadcast own span = 1 + #alive neighbors
//	round 4i+2: broadcast the best (span, id) seen in N+[v]
//	round 4i+3: undefeated maxima join and announce; the covered retire
//
// After the run, In reports membership; the joined set is dominating.
type GreedyDSNode struct {
	id    int
	phase int8
	span  int
	In    bool
}

type aliveMsg struct{}
type spanMsg struct{ span, id int }
type maxMsg struct{ span, id int }
type joinMsg struct{}

// beats reports whether candidate (as, ai) precedes (bs, bi) in the greedy
// order: larger span first, lower ID on ties.
func beats(as, ai, bs, bi int) bool {
	return as > bs || (as == bs && ai < bi)
}

// NewGreedyDSNodes builds one GreedyDSNode per node.
func NewGreedyDSNodes(n int) []*GreedyDSNode {
	nodes := make([]*GreedyDSNode, n)
	for v := range nodes {
		nodes[v] = &GreedyDSNode{id: v}
	}
	return nodes
}

// Start announces that the node is uncovered.
func (g *GreedyDSNode) Start() any { return aliveMsg{} }

// Round implements the four-phase greedy iteration. Termination: every
// iteration at least the globally best (span, id) pair among uncovered nodes
// is undefeated and joins, so at most n iterations (4n rounds) occur.
func (g *GreedyDSNode) Round(received []any) (any, bool) {
	switch g.phase {
	case 0: // alive messages received: span = self + alive neighbors
		g.phase = 1
		g.span = 1
		for _, msg := range received {
			if _, ok := msg.(aliveMsg); ok {
				g.span++
			}
		}
		return spanMsg{span: g.span, id: g.id}, false
	case 1: // spans received: forward the best pair in N+[v]
		g.phase = 2
		bs, bi := g.span, g.id
		for _, msg := range received {
			if sp, ok := msg.(spanMsg); ok && beats(sp.span, sp.id, bs, bi) {
				bs, bi = sp.span, sp.id
			}
		}
		return maxMsg{span: bs, id: bi}, false
	case 2: // 2-hop maxima received: join iff undefeated
		g.phase = 3
		for _, msg := range received {
			if mx, ok := msg.(maxMsg); ok && beats(mx.span, mx.id, g.span, g.id) {
				return nil, false
			}
		}
		g.In = true
		return joinMsg{}, false
	default: // joiners announced
		g.phase = 0
		if g.In {
			return nil, true
		}
		for _, msg := range received {
			if _, ok := msg.(joinMsg); ok {
				return nil, true // covered: retire
			}
		}
		return aliveMsg{}, false // still uncovered: next iteration
	}
}

// GreedyDSSet extracts the dominating set from a finished run.
func GreedyDSSet(nodes []*GreedyDSNode) []int {
	var out []int
	for v, g := range nodes {
		if g.In {
			out = append(out, v)
		}
	}
	return out
}

// LPDSNode is the per-node program of the constant-round LP-relaxation
// dominating set (in the spirit of Kuhn–Wattenhofer's constant-time
// approximation): exchange degrees, set
// x_v = max_{u∈N+[v]} 1/(δ_u+1), join with probability
// min(1, x_v · 2 ln(Δ²_v+2)) where Δ²_v is the local two-hop maximum degree,
// then repair — any node with no joined closed neighbor self-joins.
// Exactly three broadcast rounds, independent of n.
type LPDSNode struct {
	id     int
	degree int
	src    *rng.Source
	phase  int8
	In     bool
}

type degMsg struct{ deg int }
type lpJoinMsg struct{}

// NewLPDSNodes builds one LPDSNode per node with the given degrees and
// randomness streams.
func NewLPDSNodes(degrees []int, sources []*rng.Source) []*LPDSNode {
	if len(sources) != len(degrees) {
		panic(fmt.Sprintf("distsim: %d sources for %d nodes", len(sources), len(degrees)))
	}
	nodes := make([]*LPDSNode, len(degrees))
	for v := range nodes {
		nodes[v] = &LPDSNode{id: v, degree: degrees[v], src: sources[v]}
	}
	return nodes
}

// Start broadcasts the node's degree.
func (l *LPDSNode) Start() any { return degMsg{l.degree} }

// Round implements rounding (phase 0) and repair (phase 1).
func (l *LPDSNode) Round(received []any) (any, bool) {
	switch l.phase {
	case 0:
		l.phase = 1
		x := 1.0 / float64(l.degree+1)
		maxDeg := l.degree
		for _, msg := range received {
			if dm, ok := msg.(degMsg); ok {
				if w := 1.0 / float64(dm.deg+1); w > x {
					x = w
				}
				if dm.deg > maxDeg {
					maxDeg = dm.deg
				}
			}
		}
		p := x * 2 * math.Log(float64(maxDeg+2))
		if p >= 1 || l.src.Float64() < p {
			l.In = true
			return lpJoinMsg{}, false
		}
		return nil, false
	default:
		if l.In {
			return nil, true
		}
		for _, msg := range received {
			if _, ok := msg.(lpJoinMsg); ok {
				return nil, true // covered
			}
		}
		l.In = true // repair: self-join
		return lpJoinMsg{}, true
	}
}

// LPDSSet extracts the dominating set from a finished run.
func LPDSSet(nodes []*LPDSNode) []int {
	var out []int
	for v, l := range nodes {
		if l.In {
			out = append(out, v)
		}
	}
	return out
}
