// Package obs is the observability layer shared by every runtime in the
// repository: a lightweight metrics surface (counters, gauges, fixed-bucket
// histograms with an allocation-free hot path) plus a Tracer interface that
// receives typed per-round events — slot start/end, coverage, crashes,
// messages sent/dropped, heal patches, chaos injections — and fans them out
// to pluggable sinks (a JSONL file sink for offline analysis, an in-memory
// sink for tests, a metrics sink that aggregates events into a Registry).
//
// The paper's claims are all quantitative (lifetime slots, coverage
// fractions, message rounds), and related reconfiguration work
// (Censor-Hillel & Rabie, arXiv:1810.02106) reasons about per-round progress
// measures; this package exposes exactly those quantities so experiments can
// assert them instead of re-deriving them from Result structs.
//
// # Hooks: the canonical Options shape
//
// Every runtime Options struct (sensim.Options, which heal.Options aliases,
// and distsim.Options) embeds a Hooks value, so observability is wired the
// same way everywhere:
//
//	sensim.Options{K: 1, Chaos: plan, Hooks: obs.Hooks{Trace: sink}}
//	distsim.Options{MaxRounds: 10, Radio: r, Hooks: obs.Hooks{Trace: sink}}
//
// The zero Hooks is the no-op default: emitting through it costs a single
// nil check and zero allocations, which is what keeps instrumented hot
// paths allocation-free when tracing is off (pinned by AllocsPerRun tests).
// Common runtime knobs use one canonical name across packages, documented
// here once instead of three times: K (domination tolerance), Chaos (the
// slot runtimes' one fault plan, chaos.Plan), MaxRounds (distsim's round
// cap) and Radio (distsim's unreliable-medium model, which heal takes from
// Chaos.Radio). sensim.Options (heal.Options is an alias of it) holds
// exactly K, Chaos and Hooks; see docs/OBSERVABILITY.md for the full schema.
package obs

import "sync"

// EventType identifies the kind of a trace event. The String form is the
// "e" field of the JSONL encoding.
type EventType uint8

const (
	// EvNone is the zero EventType; it is never emitted by the runtimes.
	EvNone EventType = iota
	// EvRunStart opens a runtime execution: Name = runtime label,
	// A = node count.
	EvRunStart
	// EvRunEnd closes a runtime execution: Name = runtime label, T = slots
	// (or rounds) executed, A = achieved lifetime, B = deaths.
	EvRunEnd
	// EvSlotStart opens energy-simulator slot T.
	EvSlotStart
	// EvSlotEnd closes slot T: A = serving nodes, B = alive nodes,
	// F = coverage fraction.
	EvSlotEnd
	// EvCrash reports a chaos-plan crash of Node applied at slot T.
	EvCrash
	// EvLeak reports a chaos battery leak at slot T: Node, A = amount.
	EvLeak
	// EvRound closes message-passing round T: A = messages sent,
	// B = messages dropped by the radio.
	EvRound
	// EvPatch reports a heal recruitment attempt at slot T: A = attempt
	// index within the slot (0-based), B = nodes enlisted by the attempt.
	EvPatch
	// EvRecruit reports Node joining the active set at slot T.
	EvRecruit
	// EvReplan reports a centralized re-plan at slot T: A = the new
	// schedule's nominal lifetime.
	EvReplan
	// EvDegraded reports slot T running under-covered after the full
	// escalation ladder: A = uncovered node count.
	EvDegraded
	// EvTrialStart opens experiment trial T of the experiment Name.
	EvTrialStart
	// EvTrialEnd closes experiment trial T of the experiment Name.
	EvTrialEnd
	// EvAttempt reports one retry of the solver WHP driver: Name = solver
	// name, T = attempt index (0-based), A = the attempt's truncated
	// lifetime, B = the best lifetime so far.
	EvAttempt
	// EvRefine reports one improvement pass of an anytime refinement
	// solver: Name = refiner name, T = pass index (0-based), A = the
	// working schedule's lifetime after the pass, B = the best lifetime
	// seen so far.
	EvRefine
	// EvReconfig reports a reconfiguration transition planned at slot T:
	// Name = outcome mode ("clean", "degraded", or "violation"),
	// A = achieved overlap slots, B = overlap energy charged.
	EvReconfig
	// EvWakeMiss reports Node sleeping through its first scheduled wake-up
	// after a live schedule install at slot T (dissemination loss).
	EvWakeMiss
	// EvShard reports one stage of a sharded solve. Name = stage ("solve"
	// for a per-shard solve, "hit" for a shard-cache hit, "repair" for a
	// boundary recruitment, "replan" for a shard replan escalation,
	// "truncate" for a stitch giving up at T). Node = shard index (-1 for
	// whole-partition stages), T = stitch time slot where meaningful,
	// A/B = stage-specific payload (see the Shard constructor).
	EvShard
)

var eventNames = [...]string{
	EvNone:       "none",
	EvRunStart:   "run_start",
	EvRunEnd:     "run_end",
	EvSlotStart:  "slot_start",
	EvSlotEnd:    "slot_end",
	EvCrash:      "crash",
	EvLeak:       "leak",
	EvRound:      "round",
	EvPatch:      "patch",
	EvRecruit:    "recruit",
	EvReplan:     "replan",
	EvDegraded:   "degraded",
	EvTrialStart: "trial_start",
	EvTrialEnd:   "trial_end",
	EvAttempt:    "attempt",
	EvRefine:     "refine",
	EvReconfig:   "reconfig",
	EvWakeMiss:   "wake_miss",
	EvShard:      "shard",
}

// String returns the JSONL name of the event type.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one typed trace record. It is a flat value type — no pointers,
// no slices — so emitting one allocates nothing. The meaning of T, Node, A,
// B, and F depends on Type (see the EventType constants); unused fields are
// zero, with Node = -1 when no node is involved.
type Event struct {
	Type EventType
	Name string  // runtime or experiment label (run/trial events only)
	T    int     // slot or round index
	Node int     // node ID, -1 when not applicable
	A, B int     // type-specific integers
	F    float64 // type-specific float (coverage)
}

// Constructors, one per event type, so call sites read like the schema.

// RunStart opens a runtime execution trace.
func RunStart(name string, nodes int) Event {
	return Event{Type: EvRunStart, Name: name, Node: -1, A: nodes}
}

// RunEnd closes a runtime execution trace.
func RunEnd(name string, slots, achieved, deaths int) Event {
	return Event{Type: EvRunEnd, Name: name, T: slots, Node: -1, A: achieved, B: deaths}
}

// SlotStart opens slot t.
func SlotStart(t int) Event { return Event{Type: EvSlotStart, T: t, Node: -1} }

// SlotEnd closes slot t with its serving/alive counts and coverage.
func SlotEnd(t, served, alive int, coverage float64) Event {
	return Event{Type: EvSlotEnd, T: t, Node: -1, A: served, B: alive, F: coverage}
}

// Crash records a chaos-plan crash.
func Crash(t, node int) Event { return Event{Type: EvCrash, T: t, Node: node} }

// Leak records a chaos battery leak.
func Leak(t, node, amount int) Event {
	return Event{Type: EvLeak, T: t, Node: node, A: amount}
}

// Round closes a message-passing round.
func Round(round, sent, dropped int) Event {
	return Event{Type: EvRound, T: round, Node: -1, A: sent, B: dropped}
}

// Patch records a heal recruitment attempt.
func Patch(t, attempt, enlisted int) Event {
	return Event{Type: EvPatch, T: t, Node: -1, A: attempt, B: enlisted}
}

// Recruit records a node enlisted into the active set.
func Recruit(t, node int) Event { return Event{Type: EvRecruit, T: t, Node: node} }

// Replan records a centralized re-plan escalation.
func Replan(t, lifetime int) Event {
	return Event{Type: EvReplan, T: t, Node: -1, A: lifetime}
}

// Degraded records a slot that ran under-covered.
func Degraded(t, uncovered int) Event {
	return Event{Type: EvDegraded, T: t, Node: -1, A: uncovered}
}

// TrialStart opens experiment trial i.
func TrialStart(name string, i int) Event {
	return Event{Type: EvTrialStart, Name: name, T: i, Node: -1}
}

// TrialEnd closes experiment trial i.
func TrialEnd(name string, i int) Event {
	return Event{Type: EvTrialEnd, Name: name, T: i, Node: -1}
}

// Attempt reports one retry of the solver WHP driver.
func Attempt(name string, try, lifetime, best int) Event {
	return Event{Type: EvAttempt, Name: name, T: try, Node: -1, A: lifetime, B: best}
}

// Refine reports one improvement pass of an anytime refinement solver.
func Refine(name string, pass, lifetime, best int) Event {
	return Event{Type: EvRefine, Name: name, T: pass, Node: -1, A: lifetime, B: best}
}

// Reconfig reports a planned reconfiguration transition. mode is "clean"
// (requested overlap achieved, primary solver), "degraded" (reduced overlap
// or Replan fallback), or "violation" (domination provably lost).
func Reconfig(t, overlap, energy int, mode string) Event {
	return Event{Type: EvReconfig, Name: mode, T: t, Node: -1, A: overlap, B: energy}
}

// WakeMiss reports a node missing its first wake-up after a live install.
func WakeMiss(t, node int) Event { return Event{Type: EvWakeMiss, T: t, Node: node} }

// Shard reports one stage of a sharded solve. stage is "solve" (shard solved
// fresh, A = schedule lifetime), "hit" (shard served from the compositional
// cache, A = schedule lifetime), "repair" (boundary recruitment at slot t,
// A = recruited node, B = uncovered node it covers), "replan" (escalation at
// slot t, A = the replanned tail's lifetime), or "truncate" (stitch gave up
// at slot t, A = uncovered node count). shard is the shard index, -1 for
// whole-partition stages.
func Shard(stage string, shard, t, a, b int) Event {
	return Event{Type: EvShard, Name: stage, T: t, Node: shard, A: a, B: b}
}

// Tracer receives the event stream of an instrumented execution. Emit is
// called synchronously from the runtime hot path, so implementations should
// be cheap; the provided sinks (JSONL, Memory, MetricsSink) all are.
type Tracer interface {
	Emit(Event)
}

// Hooks is the observability field every runtime Options embeds. The zero
// value is the no-op default: tracing off, one branch per emission, zero
// allocations.
type Hooks struct {
	// Trace receives every event the instrumented runtime emits; nil
	// disables tracing.
	Trace Tracer
}

// Emit forwards ev to the tracer, if any. With a nil tracer this is a
// single branch and never allocates — the property the AllocsPerRun tests
// pin.
func (h Hooks) Emit(ev Event) {
	if h.Trace != nil {
		h.Trace.Emit(ev)
	}
}

// Tee fans events out to every non-nil tracer. It returns nil when no
// tracer remains (so the result can be stored directly in Hooks.Trace), and
// the tracer itself when only one remains (no indirection on the hot path).
func Tee(tracers ...Tracer) Tracer {
	live := make(multiTracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multiTracer []Tracer

func (m multiTracer) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// Synchronized wraps t so concurrent Emit calls are serialized by a mutex —
// for handing a single-writer sink (JSONL, Memory) to parallel producers
// such as experiment trials. Nil in, nil out, so it composes with Tee and
// the Hooks zero value.
func Synchronized(t Tracer) Tracer {
	if t == nil {
		return nil
	}
	return &syncTracer{t: t}
}

type syncTracer struct {
	mu sync.Mutex
	t  Tracer
}

func (s *syncTracer) Emit(ev Event) {
	s.mu.Lock()
	s.t.Emit(ev)
	s.mu.Unlock()
}

// Memory is the in-memory test sink: it records every event in order.
type Memory struct {
	Events []Event
}

// Emit appends ev to the record.
func (m *Memory) Emit(ev Event) { m.Events = append(m.Events, ev) }

// Count returns how many recorded events have the given type.
func (m *Memory) Count(t EventType) int {
	n := 0
	for _, ev := range m.Events {
		if ev.Type == t {
			n++
		}
	}
	return n
}
