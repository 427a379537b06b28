package sensim

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Model is a realistic per-slot energy model, generalizing the paper's
// abstraction. The paper counts only dominating-duty slots against the
// budget b_v (implicitly: sleep is free and data delivery is paid from a
// separately reserved budget). Model makes those costs explicit so the
// abstraction gap can be measured (experiment E18).
type Model struct {
	ActiveCost int // energy per slot spent awake as a clusterhead
	SleepCost  int // energy per slot spent sleeping (idle drain)
	TxCost     int // energy per aggregation-tree transmission (charged to the sender)
}

// RealisticResult reports a battery-drain execution.
type RealisticResult struct {
	// Score is the coverage record of the executed slots.
	Score
	// Deaths counts nodes that ran out of battery during the run.
	Deaths int
	// EnergySpent sums all charges.
	EnergySpent int
}

// RunRealistic executes the schedule under the battery-drain model: every
// alive node pays SleepCost per slot, active clusterheads pay ActiveCost
// instead, and each aggregation-tree transmission needed to deliver the
// slot's data to the sink charges TxCost to the transmitting node (relay
// nodes wake up to forward — the realistic cost the paper's reserved-budget
// argument hides). Nodes whose battery is exhausted die and neither serve
// nor need coverage. tree may be nil to skip delivery accounting.
//
// As in Run, a fully dead network is a terminal coverage violation: the
// slot that finds no node alive is scored as uncovered and ends the run.
func RunRealistic(g *graph.Graph, s *core.Schedule, batteries []int, m Model, tree *agg.Tree) RealisticResult {
	if len(batteries) != g.N() {
		panic(fmt.Sprintf("sensim: %d batteries for %d nodes", len(batteries), g.N()))
	}
	if m.ActiveCost < m.SleepCost {
		panic("sensim: ActiveCost below SleepCost makes no physical sense")
	}
	var res RealisticResult
	battery := append([]int(nil), batteries...)
	alive := make([]bool, g.N())
	for v := range alive {
		// Nodes starting at 0 battery count as dead, not deaths.
		alive[v] = battery[v] > 0
	}

	charge := func(v, amount int) {
		if amount <= 0 || !alive[v] {
			return
		}
		if amount > battery[v] {
			amount = battery[v]
		}
		battery[v] -= amount
		res.EnergySpent += amount
		if battery[v] == 0 {
			alive[v] = false
			res.Deaths++
		}
	}

	sess := domset.NewSession(g)
	meter := NewMeter(obs.Hooks{})
	sent := bitset.New(g.N())
	serving := make([]int, 0, g.N())

	t := 0
run:
	for _, phase := range s.Phases {
		for dt := 0; dt < phase.Duration; dt++ {
			// Serving set: scheduled, alive, able to pay a full active slot.
			serving = serving[:0]
			for _, v := range phase.Set {
				if alive[v] && battery[v] >= m.ActiveCost {
					serving = append(serving, v)
				}
			}
			// Coverage is scored before charging (the slot's service
			// happens while the energy is still there).
			if _, dead := meter.Slot(t, len(serving), sess.Reset(serving, 1, alive)); dead {
				break run
			}
			for v := 0; v < g.N(); v++ {
				if !alive[v] {
					continue
				}
				if sess.Contains(v) {
					charge(v, m.ActiveCost)
				} else {
					charge(v, m.SleepCost)
				}
			}
			if tree != nil && m.TxCost > 0 {
				sent.Reset()
				chargeDelivery(tree, serving, alive, m.TxCost, charge, sent)
			}
			t++
		}
	}
	res.Score = meter.Score
	return res
}

// chargeDelivery charges TxCost to every distinct transmitting node on the
// union of root paths from the serving clusterheads (in-network
// aggregation: each tree edge fires once). sent is caller-owned scratch,
// reset before the call.
func chargeDelivery(tree *agg.Tree, serving []int, alive []bool, txCost int, charge func(v, amount int), sent *bitset.Set) {
	for _, s := range serving {
		for v := s; v != tree.Sink && !sent.Test(v); v = tree.Parent[v] {
			sent.Set(v)
			if alive[v] {
				charge(v, txCost)
			}
		}
	}
}
