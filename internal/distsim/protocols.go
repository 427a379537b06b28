package distsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/domatic"
	"repro/internal/graph"
	"repro/internal/rng"
)

// UniformNode is the per-node program of the paper's Algorithm 1:
//
//	round 1: broadcast δ_v; on receipt compute δ²_v = min over N+[v]
//	local:   draw one color uniformly from [0, δ²_v/(K ln n))
//
// After the run, Color holds the node's chosen color class.
type UniformNode struct {
	deg   int
	n     int
	k     float64
	src   *rng.Source
	Color int
}

// NewUniformNodes builds one UniformNode program per node of g. sources must
// contain one independent randomness stream per node (see rng.SplitN).
func NewUniformNodes(g *graph.Graph, k float64, sources []*rng.Source) []*UniformNode {
	if len(sources) != g.N() {
		panic(fmt.Sprintf("distsim: %d sources for %d nodes", len(sources), g.N()))
	}
	nodes := make([]*UniformNode, g.N())
	for v := range nodes {
		nodes[v] = &UniformNode{deg: g.Degree(v), n: g.N(), k: k, src: sources[v]}
	}
	return nodes
}

// Start broadcasts the node's degree.
func (u *UniformNode) Start() any { return u.deg }

// Round consumes the neighbors' degrees and finishes immediately: a single
// exchange suffices for Algorithm 1.
func (u *UniformNode) Round(received []any) (any, bool) {
	d2 := u.deg
	for _, m := range received {
		if d, ok := m.(int); ok && d < d2 {
			d2 = d
		}
	}
	u.Color = u.src.Intn(domatic.UniformColorRange(d2, u.n, u.k))
	return nil, true
}

// Programs adapts a concrete node slice to the Program interface.
func Programs[T Program](nodes []T) []Program {
	out := make([]Program, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out
}

// UniformSchedule assembles the Algorithm 1 schedule from the colors the
// distributed run produced: color class i is active for b slots.
func UniformSchedule(nodes []*UniformNode, b int) *core.Schedule {
	return core.FromPartition(colorClasses(nodes), b)
}

// colorClasses groups the nodes of a distributed Algorithm 1 run by the
// color each chose.
func colorClasses(nodes []*UniformNode) domatic.Partition {
	colors := make([]int, len(nodes))
	for v, u := range nodes {
		colors[v] = u.Color
	}
	return domatic.Classes(colors)
}

// generalExchange is the round-1 message of Algorithm 2: (b̂_v, τ_v).
type generalExchange struct {
	bhat int
	tau  int
}

// GeneralNode is the per-node program of the paper's Algorithm 2:
//
//	round 1: broadcast b_v; compute b̂_v = max, τ_v = sum over N+[v]
//	round 2: broadcast (b̂_v, τ_v); compute b̂²_v = max b̂, τ²_v = min τ
//	local:   draw b_v colors from [0, τ²_v/(K ln(b̂²_v·n)))
//
// After the run, Colors holds the node's chosen slot set C_v.
type GeneralNode struct {
	b      int
	n      int
	k      float64
	src    *rng.Source
	round  int
	bhat   int
	tau    int
	Colors []int
}

// NewGeneralNodes builds one GeneralNode program per node of g with the
// given per-node batteries and randomness streams.
func NewGeneralNodes(g *graph.Graph, b []int, k float64, sources []*rng.Source) []*GeneralNode {
	if len(b) != g.N() || len(sources) != g.N() {
		panic(fmt.Sprintf("distsim: %d batteries, %d sources for %d nodes", len(b), len(sources), g.N()))
	}
	nodes := make([]*GeneralNode, g.N())
	for v := range nodes {
		nodes[v] = &GeneralNode{b: b[v], n: g.N(), k: k, src: sources[v]}
	}
	return nodes
}

// Start broadcasts the node's battery.
func (gn *GeneralNode) Start() any { return gn.b }

// Round implements the two exchanges of Algorithm 2.
func (gn *GeneralNode) Round(received []any) (any, bool) {
	switch gn.round {
	case 0:
		gn.bhat, gn.tau = gn.b, gn.b
		for _, m := range received {
			if bu, ok := m.(int); ok {
				if bu > gn.bhat {
					gn.bhat = bu
				}
				gn.tau += bu
			}
		}
		gn.round = 1
		return generalExchange{bhat: gn.bhat, tau: gn.tau}, false
	default:
		bhat2, tau2 := gn.bhat, gn.tau
		for _, m := range received {
			if ex, ok := m.(generalExchange); ok {
				if ex.bhat > bhat2 {
					bhat2 = ex.bhat
				}
				if ex.tau < tau2 {
					tau2 = ex.tau
				}
			}
		}
		gn.Colors = core.DrawSlots(gn.Colors, gn.b, core.GeneralColorRange(tau2, bhat2, gn.n, gn.k), gn.src)
		return nil, true
	}
}

// GeneralSchedule assembles the Algorithm 2 schedule from the slot sets the
// distributed run produced: slot t is served by every node with t ∈ C_v.
func GeneralSchedule(nodes []*GeneralNode) *core.Schedule {
	return core.FromSlots(len(nodes), func(v int) []int { return nodes[v].Colors })
}

// FaultTolerantSchedule assembles the Algorithm 3 schedule from the colors
// of a distributed Algorithm 1 run: everyone is active for ⌊b/2⌋ slots, then
// groups of tol consecutive color classes are merged and each merged group
// is active for the remaining ⌈b/2⌉ slots.
func FaultTolerantSchedule(nodes []*UniformNode, b, tol int) *core.Schedule {
	if tol < 1 {
		panic(fmt.Sprintf("distsim: tolerance %d must be >= 1", tol))
	}
	return core.FaultTolerantFrom(colorClasses(nodes), len(nodes), b, tol)
}
