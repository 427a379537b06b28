package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are rejected at compile time by the unsigned
// type — counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. An observation lands in the first
// bucket whose upper bound is >= the value; values above every bound land in
// the implicit overflow bucket. Observe is allocation-free (a linear scan
// over the bounds plus three atomic adds), which is what lets the runtimes
// observe per-slot coverage on the hot path.
type Histogram struct {
	bounds  []float64 // immutable after construction, strictly increasing
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. It panics on an empty or unsorted bound list: a histogram's shape
// is part of the metric's contract, so a malformed one is a programming
// error, not a runtime condition.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d", i))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (the returned slice is shared; do
// not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Buckets returns a copy of the per-bucket counts; the last entry is the
// overflow bucket.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Snapshot is a point-in-time reading of one metric, the unit of the
// registry's JSON and text renderings.
type Snapshot struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"` // "counter" | "gauge" | "histogram"
	Value   float64   `json:"value,omitempty"`
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
}

// Registry is a named collection of metrics. Get-or-create accessors make
// wiring cheap: the first lookup registers the metric, later lookups return
// the same instance. Lookups take a mutex, so callers on hot paths hold on
// to the returned metric instead of re-resolving it per event (as
// MetricsSink does).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it if needed.
// It panics if the name is already taken by a different metric kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is not a counter", name))
		}
		return c
	}
	c := &Counter{}
	r.metrics[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is not a gauge", name))
		}
		return g
	}
	g := &Gauge{}
	r.metrics[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds if needed. The bounds of an already registered histogram
// win; they are part of its identity.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is not a histogram", name))
		}
		return h
	}
	h := NewHistogram(bounds)
	r.metrics[name] = h
	return h
}

// Snapshot returns a point-in-time reading of every metric, sorted by name.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Snapshot, 0, len(names))
	for _, name := range names {
		switch m := r.metrics[name].(type) {
		case *Counter:
			out = append(out, Snapshot{Name: name, Kind: "counter", Value: float64(m.Value())})
		case *Gauge:
			out = append(out, Snapshot{Name: name, Kind: "gauge", Value: float64(m.Value())})
		case *Histogram:
			out = append(out, Snapshot{
				Name: name, Kind: "histogram",
				Count: m.Count(), Sum: m.Sum(),
				Bounds: m.Bounds(), Buckets: m.Buckets(),
			})
		}
	}
	r.mu.Unlock()
	return out
}

// WriteSummary renders the registry as aligned "name value" text lines, the
// shape ltsim -metrics prints after a run.
func (r *Registry) WriteSummary(w io.Writer) error {
	snaps := r.Snapshot()
	width := 0
	for _, s := range snaps {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range snaps {
		var err error
		switch s.Kind {
		case "histogram":
			mean := 0.0
			if s.Count > 0 {
				mean = s.Sum / float64(s.Count)
			}
			_, err = fmt.Fprintf(w, "%-*s  count=%d sum=%g mean=%.4f buckets=%v\n",
				width, s.Name, s.Count, s.Sum, mean, s.Buckets)
		default:
			_, err = fmt.Fprintf(w, "%-*s  %g\n", width, s.Name, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP serves the registry as a JSON snapshot (an expvar-style live
// metrics endpoint): an array of Snapshot objects sorted by name. Wire it
// with http.Serve(listener, registry) — every path serves the same
// document.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Snapshot()) //nolint:errcheck // best-effort over HTTP
}

// MetricsSink is a Tracer that aggregates the event stream into a Registry:
// counters for slots, crashes, leaks, rounds, messages, patches, recruits,
// replans, degraded slots, and trials, plus a coverage histogram.
// Emit resolves every metric once at construction, so the per-event cost is
// a switch and one or two atomic adds — zero allocations (pinned by tests).
type MetricsSink struct {
	slots, crashes, leaks      *Counter
	rounds, messages, dropped  *Counter
	patches, recruits, replans *Counter
	degraded, trials, runs     *Counter
	alive                      *Gauge
	coverage                   *Histogram
}

// CoverageBounds is the bucket layout of the coverage histogram: full
// coverage lands in the overflow bucket, everything below in the partial
// buckets.
var CoverageBounds = []float64{0, 0.25, 0.5, 0.75, 0.999}

// NewMetricsSink registers the standard runtime metrics in reg and returns
// the aggregating tracer.
func NewMetricsSink(reg *Registry) *MetricsSink {
	return &MetricsSink{
		slots:    reg.Counter("sim.slots"),
		crashes:  reg.Counter("chaos.crashes"),
		leaks:    reg.Counter("chaos.leaks"),
		rounds:   reg.Counter("net.rounds"),
		messages: reg.Counter("net.messages"),
		dropped:  reg.Counter("net.dropped"),
		patches:  reg.Counter("heal.patch_attempts"),
		recruits: reg.Counter("heal.recruits"),
		replans:  reg.Counter("heal.replans"),
		degraded: reg.Counter("heal.degraded_slots"),
		trials:   reg.Counter("exp.trials"),
		runs:     reg.Counter("sim.runs"),
		alive:    reg.Gauge("sim.alive"),
		coverage: reg.Histogram("sim.coverage", CoverageBounds),
	}
}

// Emit implements Tracer.
func (m *MetricsSink) Emit(ev Event) {
	switch ev.Type {
	case EvRunStart:
		m.runs.Inc()
	case EvSlotEnd:
		m.slots.Inc()
		m.alive.Set(int64(ev.B))
		m.coverage.Observe(ev.F)
	case EvCrash:
		m.crashes.Inc()
	case EvLeak:
		m.leaks.Inc()
	case EvRound:
		m.rounds.Inc()
		m.messages.Add(uint64(ev.A))
		m.dropped.Add(uint64(ev.B))
	case EvPatch:
		m.patches.Inc()
	case EvRecruit:
		m.recruits.Inc()
	case EvReplan:
		m.replans.Inc()
	case EvDegraded:
		m.degraded.Inc()
	case EvTrialEnd:
		m.trials.Inc()
	}
}
