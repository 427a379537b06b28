package heal

import (
	"sort"

	"repro/internal/distsim"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/obs"
)

// The patch protocol is a genuine distributed recruitment round in the
// simulator's synchronous broadcast model, in the spirit of Penso & Barbosa's
// local recruitment of replacement dominators (arXiv:cs/0309040) and the
// local reconfiguration steps of Censor-Hillel & Rabie (arXiv:1810.02106).
// Every quantity a node acts on is locally observable: its own coverage
// deficit (a node hears its dominators), its own residual battery, and
// whether it is currently serving. The protocol costs three logical
// broadcast exchanges:
//
//	help:  under-covered nodes announce how many dominators they miss
//	bid:   idle neighbors with battery answer with their residual energy
//	grant: each under-covered node enlists its highest-residual bidders
//
// A candidate that sees its ID in any grant joins the active set. An
// under-covered node that received no usable bids and has battery of its own
// self-recruits (a purely local decision, like the LP-rounding repair step).
//
// Under a lossy radio any of the three messages can vanish, so the runtime
// retries the protocol with exponential backoff: on attempt a every logical
// message is rebroadcast 2^a consecutive rounds, driving the per-message
// loss probability to loss^(2^a). Retransmissions are real sends — they are
// charged to Stats.Messages, which is how E23 prices repair traffic.

// role is the locally observable state a node enters the protocol with.
type role struct {
	deficit  int  // missing dominators (> 0 means under-covered)
	residual int  // spendable duty budget (0 = cannot volunteer)
	serving  bool // already active this slot
	alive    bool
}

type helpMsg struct {
	need int
}

type bidMsg struct {
	residual int
	id       int
}

type grantMsg struct {
	ids []int // node IDs enlisted by the sender
}

// recruitNode is the per-node distsim program. repeats stretches every
// logical phase to that many broadcast rounds (the backoff mechanism).
type recruitNode struct {
	id      int
	role    role
	repeats int

	round     int // rounds completed
	bids      map[int]int
	granted   map[int]bool
	heardHelp bool

	Recruited bool // enlisted by a neighbor's grant or by self-recruitment
}

func newRecruitNodes(n int, roles []role, repeats int) []*recruitNode {
	nodes := make([]*recruitNode, n)
	for v := range nodes {
		nodes[v] = &recruitNode{id: v, role: roles[v], repeats: repeats}
	}
	return nodes
}

// phase maps the round counter onto the three logical exchanges.
func (r *recruitNode) phase() int { return r.round / r.repeats }

// Start opens the help phase.
func (r *recruitNode) Start() any {
	if !r.role.alive || r.role.deficit <= 0 {
		return nil
	}
	return helpMsg{need: r.role.deficit}
}

// Round advances the stretched three-phase exchange. Phase p's messages are
// broadcast during its rounds and processed as they arrive; decisions fall
// on the first round of the following phase.
func (r *recruitNode) Round(received []any) (any, bool) {
	if !r.role.alive {
		return nil, true
	}
	for _, msg := range received {
		switch m := msg.(type) {
		case helpMsg:
			r.heardHelp = true
		case bidMsg:
			if r.bids == nil {
				r.bids = make(map[int]int)
			}
			r.bids[m.id] = m.residual
		case grantMsg:
			for _, id := range m.ids {
				if id == r.id {
					r.Recruited = true
				}
			}
		}
	}
	r.round++
	switch r.phase() {
	case 0: // still in the help phase: under-covered nodes keep repeating
		if r.role.deficit > 0 {
			return helpMsg{need: r.role.deficit}, false
		}
		return nil, false
	case 1: // bid phase: idle nodes with battery answer heard pleas
		if r.canVolunteer() && r.heardHelp {
			return bidMsg{residual: r.role.residual, id: r.id}, false
		}
		return nil, false
	case 2: // grant phase: under-covered nodes enlist their best bidders
		if r.role.deficit > 0 {
			if ids := r.pickBidders(); len(ids) > 0 {
				return grantMsg{ids: ids}, false
			}
		}
		return nil, false
	default: // protocol over: apply the self-recruitment fallback
		if r.role.deficit > 0 && len(r.bids) == 0 && r.canVolunteer() {
			r.Recruited = true
		}
		return nil, true
	}
}

func (r *recruitNode) canVolunteer() bool {
	return r.role.alive && !r.role.serving && r.role.residual > 0
}

// pickBidders returns the deficit-many highest-residual bidder IDs (ties to
// the lower ID, for determinism).
func (r *recruitNode) pickBidders() []int {
	ids := make([]int, 0, len(r.bids))
	for id := range r.bids {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		bi, bj := r.bids[ids[i]], r.bids[ids[j]]
		if bi != bj {
			return bi > bj
		}
		return ids[i] < ids[j]
	})
	if len(ids) > r.role.deficit {
		ids = ids[:r.role.deficit]
	}
	return ids
}

// runPatch executes one recruitment attempt over the current network state.
// serving is the active set of the slot; uncovered the under-k-dominated
// alive nodes. It returns the newly enlisted serviceable nodes and the
// protocol cost.
func runPatch(g *graph.Graph, net *energy.Network, serving []int, uncovered []int, k int, repeats int, radio distsim.Radio, h obs.Hooks) ([]int, distsim.Stats, error) {
	n := g.N()
	inServing := make([]bool, n)
	domCount := make([]int, n)
	for _, v := range serving {
		inServing[v] = true
	}
	for v := 0; v < n; v++ {
		if inServing[v] {
			domCount[v]++
		}
		for _, u := range g.Neighbors(v) {
			if inServing[u] {
				domCount[v]++
			}
		}
	}
	roles := make([]role, n)
	for v := 0; v < n; v++ {
		roles[v] = role{
			residual: spendable(net, v),
			serving:  inServing[v],
			alive:    net.Alive[v],
		}
	}
	for _, v := range uncovered {
		roles[v].deficit = k - domCount[v]
	}
	nodes := newRecruitNodes(n, roles, repeats)
	programs := make([]distsim.Program, n)
	for v := range nodes {
		programs[v] = nodes[v]
	}
	// 3 stretched phases plus the closing decision round, with slack.
	maxRounds := 3*repeats + 2
	stats, err := distsim.Run(g, programs, distsim.Options{MaxRounds: maxRounds, Radio: radio, Hooks: h})
	if err != nil {
		return nil, stats, err
	}
	var recruited []int
	for v, nd := range nodes {
		if nd.Recruited && !inServing[v] && net.CanServe(v) {
			recruited = append(recruited, v)
		}
	}
	return recruited, stats, nil
}

// spendable returns how many whole active slots node v can still fund.
func spendable(net *energy.Network, v int) int {
	if !net.CanServe(v) {
		return 0
	}
	return net.Residual[v]
}
