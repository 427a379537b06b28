package sensim

import (
	"repro/internal/domset"
	"repro/internal/obs"
)

// Score is the coverage record of a slot-by-slot execution: the paper's
// lifetime counts only slots whose active set k-dominates every alive node.
// Every slot runtime's result embeds it, and only Meter.Slot writes it.
type Score struct {
	// AchievedLifetime is the number of consecutive covered slots from
	// time 0.
	AchievedLifetime int
	// FirstViolation is the first uncovered slot, or -1.
	FirstViolation int
	// CoveredSlots counts every covered slot, contiguous or not.
	CoveredSlots int
	// Coverage[t] is the fraction of alive nodes k-dominated in slot t (1 on
	// a 0-node graph, 0 on a dead one). len(Coverage) is the number of slots
	// executed.
	Coverage []float64
}

// Meter scores slots: it is the one judge of whether a slot was covered.
// A runtime moves its domset.Session to the slot's serving set and alive
// mask its own way, then hands the session to Slot.
type Meter struct {
	Score
	hooks obs.Hooks
}

// NewMeter returns a meter with an empty score that emits slot_end events
// through hooks.
func NewMeter(hooks obs.Hooks) *Meter {
	return &Meter{Score: Score{FirstViolation: -1}, hooks: hooks}
}

// Slot scores slot t from sess, in which served nodes serve, and emits its
// slot_end event. A slot is covered when every alive node has k dominators
// and the network is not dead, that is, not a non-empty graph with no node
// alive: "0 of 0 covered" is a violation there, while a 0-node graph is
// covered. Slot returns the number of covered nodes and whether the network
// is dead; each caller decides whether a dead network ends its run.
func (m *Meter) Slot(t, served int, sess *domset.Session) (covered int, dead bool) {
	alive := sess.AliveCount()
	covered = sess.CoveredCount()
	dead = alive == 0 && sess.Graph().N() > 0
	cov := 1.0 // the 0-node graph
	if alive > 0 {
		cov = float64(covered) / float64(alive)
	} else if dead {
		cov = 0
	}
	m.Coverage = append(m.Coverage, cov)
	if covered == alive && !dead {
		m.CoveredSlots++
		if m.FirstViolation == -1 {
			m.AchievedLifetime = t + 1
		}
	} else if m.FirstViolation == -1 {
		m.FirstViolation = t
	}
	m.hooks.Emit(obs.SlotEnd(t, served, alive, cov))
	return covered, dead
}
