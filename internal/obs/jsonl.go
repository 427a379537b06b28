package obs

import (
	"io"
	"strconv"
)

// JSONL is the offline-analysis sink: one JSON object per event, one event
// per line, written in the order emitted. The encoding is hand-rolled over
// a reused buffer, so it is deterministic byte for byte — two runs with the
// same seed produce identical trace files (the property the determinism
// tests pin) — and allocation-free once the buffer has grown to the longest
// line.
//
// Only the fields meaningful for the event type are encoded; the per-type
// field names are documented in docs/OBSERVABILITY.md. Example lines:
//
//	{"e":"slot_end","t":3,"served":2,"alive":7,"cov":0.857142857142857}
//	{"e":"crash","t":4,"node":12}
type JSONL struct {
	w   io.Writer
	buf []byte
	err error
}

// NewJSONL returns a sink writing to w. Write errors are sticky: the first
// one is retained (see Err) and later events are dropped.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, buf: make([]byte, 0, 128)}
}

// Emit implements Tracer.
func (s *JSONL) Emit(ev Event) {
	if s.err != nil {
		return
	}
	s.buf = AppendJSON(s.buf[:0], ev)
	s.buf = append(s.buf, '\n')
	_, s.err = s.w.Write(s.buf)
}

// Err returns the first write error, if any. Callers should check it after
// the run: Emit cannot report failure to the runtime mid-execution.
func (s *JSONL) Err() error { return s.err }

// AppendJSON appends the canonical single-line JSON encoding of ev to dst
// and returns the extended slice. Exported so tests can assert the exact
// bytes and so other sinks can reuse the encoding.
func AppendJSON(dst []byte, ev Event) []byte {
	dst = append(dst, `{"e":"`...)
	dst = append(dst, ev.Type.String()...)
	dst = append(dst, '"')
	if ev.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = strconv.AppendQuote(dst, ev.Name)
	}
	switch ev.Type {
	case EvRunStart:
		dst = appendInt(dst, "nodes", ev.A)
	case EvRunEnd:
		dst = appendInt(dst, "slots", ev.T)
		dst = appendInt(dst, "achieved", ev.A)
		dst = appendInt(dst, "deaths", ev.B)
	case EvSlotStart:
		dst = appendInt(dst, "t", ev.T)
	case EvSlotEnd:
		dst = appendInt(dst, "t", ev.T)
		dst = appendInt(dst, "served", ev.A)
		dst = appendInt(dst, "alive", ev.B)
		dst = appendFloat(dst, "cov", ev.F)
	case EvCrash, EvRecruit:
		dst = appendInt(dst, "t", ev.T)
		dst = appendInt(dst, "node", ev.Node)
	case EvLeak:
		dst = appendInt(dst, "t", ev.T)
		dst = appendInt(dst, "node", ev.Node)
		dst = appendInt(dst, "amount", ev.A)
	case EvRound:
		dst = appendInt(dst, "round", ev.T)
		dst = appendInt(dst, "sent", ev.A)
		dst = appendInt(dst, "dropped", ev.B)
	case EvPatch:
		dst = appendInt(dst, "t", ev.T)
		dst = appendInt(dst, "attempt", ev.A)
		dst = appendInt(dst, "enlisted", ev.B)
	case EvReplan:
		dst = appendInt(dst, "t", ev.T)
		dst = appendInt(dst, "lifetime", ev.A)
	case EvDegraded:
		dst = appendInt(dst, "t", ev.T)
		dst = appendInt(dst, "uncovered", ev.A)
	case EvTrialStart, EvTrialEnd:
		dst = appendInt(dst, "trial", ev.T)
	case EvAttempt:
		dst = appendInt(dst, "try", ev.T)
		dst = appendInt(dst, "lifetime", ev.A)
		dst = appendInt(dst, "best", ev.B)
	case EvRefine:
		dst = appendInt(dst, "pass", ev.T)
		dst = appendInt(dst, "lifetime", ev.A)
		dst = appendInt(dst, "best", ev.B)
	case EvReconfig:
		dst = appendInt(dst, "t", ev.T)
		dst = appendInt(dst, "overlap", ev.A)
		dst = appendInt(dst, "energy", ev.B)
	case EvWakeMiss:
		dst = appendInt(dst, "t", ev.T)
		dst = appendInt(dst, "node", ev.Node)
	}
	return append(dst, '}')
}

func appendInt(dst []byte, key string, v int) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	return strconv.AppendInt(dst, int64(v), 10)
}

func appendFloat(dst []byte, key string, v float64) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
