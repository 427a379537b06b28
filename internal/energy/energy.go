// Package energy models the battery and failure semantics the paper's
// introduction describes: nodes are battery powered; a node in the active
// mode drains its dominating-duty budget, one unit per slot, while sleeping
// nodes spend nothing; and node failure "is an event of non-negligible
// probability" — the motivation for the k-tolerant variant.
//
// The budget b_v tracked here is, as in the paper, the energy a node may
// spend *serving in dominating sets*, not its total battery: deployments
// reserve the remainder for data delivery to the sink.
package energy

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Network is the mutable energy state of a deployment. A node drains one
// budget unit per active slot.
type Network struct {
	G        *graph.Graph
	Residual []int  // remaining dominating-duty budget per node
	Alive    []bool // false once a node has crashed
	charged  []bool // DrainServiceable's marks, all false between calls
}

// NewNetwork returns a fresh network over g with the given initial budgets
// and all nodes alive.
func NewNetwork(g *graph.Graph, budgets []int) *Network {
	if len(budgets) != g.N() {
		panic(fmt.Sprintf("energy: %d budgets for %d nodes", len(budgets), g.N()))
	}
	net := &Network{
		G:        g,
		Residual: append([]int(nil), budgets...),
		Alive:    make([]bool, g.N()),
		charged:  make([]bool, g.N()),
	}
	for i := range net.Alive {
		net.Alive[i] = true
	}
	return net
}

// Uniform returns a budget slice with the same value for every node of g.
func Uniform(g *graph.Graph, b int) []int {
	out := make([]int, g.N())
	for i := range out {
		out[i] = b
	}
	return out
}

// CanServe reports whether node v is alive and has budget for one more
// active slot.
func (n *Network) CanServe(v int) bool {
	return n.Alive[v] && n.Residual[v] > 0
}

// DrainServiceable charges one active slot to every node of set that can
// actually serve (alive, in range, with budget, not yet charged this call)
// and skips the rest instead of failing, as a degraded deployment needs. It
// appends the charged nodes to dst in input order — the set that truly
// served the slot — and returns the extended slice, so a caller that
// passes the previous slot's buffer allocates nothing. Duplicates are
// charged once.
func (n *Network) DrainServiceable(dst, set []int) []int {
	start := len(dst)
	for _, v := range set {
		if v < 0 || v >= len(n.Residual) || n.charged[v] || !n.CanServe(v) {
			continue
		}
		n.charged[v] = true
		n.Residual[v]--
		dst = append(dst, v)
	}
	for _, v := range dst[start:] {
		n.charged[v] = false
	}
	return dst
}

// Kill marks node v as crashed. Killing a dead node is a no-op.
func (n *Network) Kill(v int) {
	n.Alive[v] = false
}

// AliveCount returns the number of alive nodes.
func (n *Network) AliveCount() int {
	c := 0
	for _, a := range n.Alive {
		if a {
			c++
		}
	}
	return c
}

// TotalResidual returns the summed remaining budget of alive nodes.
func (n *Network) TotalResidual() int {
	total := 0
	for v, a := range n.Alive {
		if a {
			total += n.Residual[v]
		}
	}
	return total
}

// Failure is a scheduled crash: node Node dies at the start of slot Time.
type Failure struct {
	Time int
	Node int
}

// FailurePlan is a time-ordered list of crashes.
type FailurePlan []Failure

// Sort orders the plan by time (stable on node ID).
func (p FailurePlan) Sort() {
	sort.SliceStable(p, func(i, j int) bool {
		if p[i].Time != p[j].Time {
			return p[i].Time < p[j].Time
		}
		return p[i].Node < p[j].Node
	})
}

// RandomFailures draws a plan that kills `count` distinct random nodes at
// uniform times in [0, horizon).
func RandomFailures(g *graph.Graph, count, horizon int, src *rng.Source) FailurePlan {
	if count > g.N() {
		count = g.N()
	}
	perm := src.Perm(g.N())
	plan := make(FailurePlan, 0, count)
	for _, v := range perm[:count] {
		plan = append(plan, Failure{Time: src.Intn(max(1, horizon)), Node: v})
	}
	plan.Sort()
	return plan
}

// NeighborhoodFailures kills, for each chosen victim neighborhood, up to
// perNbhd nodes from a random closed neighborhood — the adversarial pattern
// that distinguishes k-tolerant schedules (which survive any k-1 deaths per
// neighborhood) from plain ones.
func NeighborhoodFailures(g *graph.Graph, neighborhoods, perNbhd, horizon int, src *rng.Source) FailurePlan {
	var plan FailurePlan
	killed := make(map[int]bool)
	for i := 0; i < neighborhoods; i++ {
		center := src.Intn(g.N())
		cn := g.ClosedNeighborhood(center)
		picks := 0
		for _, idx := range src.Perm(len(cn)) {
			if picks >= perNbhd {
				break
			}
			v := int(cn[idx])
			if !killed[v] {
				killed[v] = true
				plan = append(plan, Failure{Time: src.Intn(max(1, horizon)), Node: v})
				picks++
			}
		}
	}
	plan.Sort()
	return plan
}
