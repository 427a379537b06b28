// Package distsim is a synchronous message-passing simulator that runs the
// paper's algorithms as genuine distributed protocols, substantiating the
// claim that they are "completely distributed and require only a constant
// number of communication rounds" (two broadcast exchanges, i.e. 2-hop
// information).
//
// The model is the standard synchronous LOCAL/CONGEST round model the paper
// assumes: in each round every node broadcasts one message to all its
// neighbors, then processes the messages received that round. The simulator
// counts rounds and messages so experiment E8 can report both, and emits
// per-round trace events through the obs layer so long protocol executions
// can be watched live.
//
// The single entry point is Run(g, programs, Options); Options.Validate
// rejects malformed configurations (negative round caps, loss rates outside
// [0, 1), lossy radios without a randomness source) before a round executes.
package distsim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Program is the per-node state machine of a protocol. One Program instance
// is created per node; it communicates only through the returned broadcast
// payloads.
type Program interface {
	// Start returns the payload broadcast to all neighbors in the first
	// round, or nil to stay silent.
	Start() any
	// Round delivers the payloads received from neighbors in the previous
	// round (aligned with the node's sorted neighbor list; nil entries mean
	// the neighbor was silent). It returns the next broadcast payload (nil
	// for silence) and whether the node has terminated. A terminated node
	// sends nothing and ignores further input.
	Round(received []any) (out any, done bool)
}

// Stats reports the cost of a protocol execution.
type Stats struct {
	Rounds   int // communication rounds executed (including the Start round)
	Messages int // point-to-point messages sent (one per edge direction per broadcast)
	Dropped  int // messages lost to the unreliable radio
}

// Add accumulates another execution's cost into s, so callers that run a
// protocol repeatedly (retries, per-slot repairs) can report a total.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.Messages += o.Messages
	s.Dropped += o.Dropped
}

// Radio models an unreliable medium: Drop is consulted once per
// point-to-point delivery of a non-nil payload and reports whether that
// delivery is lost. from/to are node IDs; round is the 0-based delivery
// round of the current execution. Implementations may keep per-link state
// (e.g. Gilbert–Elliott burst models); they are called in a deterministic
// order (receivers in increasing node ID, then the receiver's sorted
// neighbor list), which is what makes lossy executions reproducible.
//
// FlatRadio below is the one independent-loss radio; package chaos wraps it
// as chaos.FlatLoss and adds the bursty Gilbert–Elliott radio.
type Radio interface {
	Drop(from, to, round int) bool
}

// Options configures a protocol execution. The knob names follow the
// canonical shape documented in package obs: an execution cap (MaxRounds),
// an unreliable-medium model (Radio), and an embedded obs.Hooks whose
// promoted Trace field receives one obs.Round event per communication round
// (sent/dropped message counts). The zero value is a reliable medium with
// the default round cap and tracing off.
type Options struct {
	// MaxRounds bounds the execution; exceeding it is a protocol failure.
	// 0 means DefaultMaxRounds(g).
	MaxRounds int
	// Radio is the unreliable-medium model; nil is the reliable medium.
	Radio Radio
	// Hooks carries the observability sinks (obs.Hooks; the promoted Trace
	// field receives per-round events). The zero value is the no-op
	// default: the round loop stays allocation-free.
	obs.Hooks
}

// DefaultMaxRounds is the round cap used when Options.MaxRounds is 0:
// generous for every protocol in this repository (the paper's algorithms
// need a constant number of rounds; the iterative baselines need O(n)).
func DefaultMaxRounds(g *graph.Graph) int { return 4*g.N() + 16 }

// Validate reports configuration errors. Run calls it before the first
// round, so a malformed execution fails with a diagnosis instead of running
// under a nonsensical model. Custom Radio implementations are assumed valid
// by construction — only the locally built FlatRadio carries parameters the
// package can check.
func (o Options) Validate() error {
	if o.MaxRounds < 0 {
		return fmt.Errorf("distsim: MaxRounds %d must be >= 0 (0 = default)", o.MaxRounds)
	}
	if r, ok := o.Radio.(flatRadio); ok {
		if r.loss < 0 || r.loss >= 1 {
			return fmt.Errorf("distsim: loss probability %v out of [0, 1)", r.loss)
		}
		if r.loss > 0 && r.src == nil {
			return fmt.Errorf("distsim: loss > 0 requires a randomness source")
		}
	}
	return nil
}

// FlatRadio returns a Radio dropping every delivery independently with
// probability loss, drawn from src. It is the common independent-loss model;
// Options.Validate checks loss and src so a misconfigured radio fails fast
// instead of silently never (or always) dropping.
func FlatRadio(loss float64, src *rng.Source) Radio {
	return flatRadio{loss: loss, src: src}
}

// flatRadio drops every delivery independently with fixed probability.
type flatRadio struct {
	loss float64
	src  *rng.Source
}

func (r flatRadio) Drop(from, to, round int) bool {
	return r.src.Float64() < r.loss
}

// Run executes one Program per node of g until every node terminates or
// opt.MaxRounds is reached. programs[v] is node v's state machine. It
// returns the execution stats; an error is returned only if the protocol
// fails to terminate in time. Every point-to-point delivery is offered to
// opt.Radio (when non-nil), and dropped deliveries count in Stats.Dropped —
// the sender still pays the transmission.
func Run(g *graph.Graph, programs []Program, opt Options) (Stats, error) {
	n := g.N()
	if len(programs) != n {
		return Stats{}, fmt.Errorf("distsim: %d programs for %d nodes", len(programs), n)
	}
	if err := opt.Validate(); err != nil {
		return Stats{}, err
	}
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(g)
	}
	radio := opt.Radio
	var stats Stats
	if n == 0 {
		return stats, nil
	}

	outbox := make([]any, n)
	done := make([]bool, n)
	remaining := n

	// Start round.
	anySent := false
	sentNow := 0
	for v := 0; v < n; v++ {
		outbox[v] = programs[v].Start()
		if outbox[v] != nil {
			anySent = true
			sentNow += g.Degree(v)
		}
	}
	stats.Messages += sentNow
	if anySent {
		stats.Rounds++
		opt.Emit(obs.Round(0, sentNow, 0))
	}

	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			return stats, fmt.Errorf("distsim: %d nodes still running after %d rounds", remaining, maxRounds)
		}
		next := make([]any, n)
		anySent = false
		sentNow = 0
		droppedNow := 0
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			nbrs := g.Neighbors(v)
			received := make([]any, len(nbrs))
			for i, u := range nbrs {
				m := outbox[u]
				if m != nil && radio != nil && radio.Drop(int(u), v, round) {
					droppedNow++
					m = nil
				}
				received[i] = m
			}
			out, finished := programs[v].Round(received)
			if finished {
				done[v] = true
				remaining--
			}
			if out != nil {
				next[v] = out
				anySent = true
				sentNow += len(nbrs)
			}
		}
		outbox = next
		stats.Messages += sentNow
		stats.Dropped += droppedNow
		if anySent {
			stats.Rounds++
		}
		// One trace event per delivery round with traffic: the start round
		// is event round 0, loop iteration r is round r+1, so indices stay
		// unique even when a round only drops inherited messages.
		if anySent || droppedNow > 0 {
			opt.Emit(obs.Round(round+1, sentNow, droppedNow))
		}
	}
	return stats, nil
}
