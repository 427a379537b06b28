package sensim

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestGoldenTrace pins the exact JSONL trace of a small, fully determined
// run: a 3-node path, a literal two-phase schedule, one chaos crash and one
// leak. Any change to the event schema, the emission order, or the JSONL
// encoding shows up here as a byte-level diff.
func TestGoldenTrace(t *testing.T) {
	g := graph.NewFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	s := &core.Schedule{Phases: []core.Phase{
		{Set: []int{0, 2}, Duration: 2},
		{Set: []int{1}, Duration: 1},
	}}
	plan := chaos.Plan{
		Crashes: []energy.Failure{{Time: 1, Node: 2}},
		Leaks:   []chaos.Leak{{Time: 0, Node: 1, Amount: 1}},
	}
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	h := obs.Hooks{Trace: jsonl}
	net := energy.NewNetwork(g, []int{2, 2, 2})
	Run(net, s, Options{K: 1, Chaos: plan, Hooks: h})
	if err := jsonl.Err(); err != nil {
		t.Fatalf("jsonl sink: %v", err)
	}

	const golden = `{"e":"run_start","name":"sensim","nodes":3}
{"e":"slot_start","t":0}
{"e":"leak","t":0,"node":1,"amount":1}
{"e":"slot_end","t":0,"served":2,"alive":3,"cov":1}
{"e":"slot_start","t":1}
{"e":"crash","t":1,"node":2}
{"e":"slot_end","t":1,"served":1,"alive":2,"cov":1}
{"e":"slot_start","t":2}
{"e":"slot_end","t":2,"served":1,"alive":2,"cov":1}
{"e":"run_end","name":"sensim","slots":3,"achieved":3,"deaths":1}
`
	if got := buf.String(); got != golden {
		t.Fatalf("trace diverged from golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestObsAllocNeutral pins the instrumentation cost of Run at the
// allocation level: attaching no hooks and attaching a metrics sink must
// both leave the per-run allocation count exactly where it was — the
// emission path builds no event payloads when tracing is off, and the
// metrics sink observes through pre-resolved pointers.
func TestObsAllocNeutral(t *testing.T) {
	src := rng.New(5)
	n := 64
	g := gen.GNP(n, 6*math.Log(float64(n))/float64(n), src.Split())
	b := make([]int, n)
	for i := range b {
		b[i] = 3
	}
	s := mustSolve(t, g, b, "general", 1, 10, src.Split())
	measure := func(h obs.Hooks) float64 {
		return testing.AllocsPerRun(20, func() {
			net := energy.NewNetwork(g, b)
			Run(net, s, Options{K: 1, Hooks: h})
		})
	}
	off := measure(obs.Hooks{})
	on := measure(obs.Hooks{Trace: obs.NewMetricsSink(obs.NewRegistry())})
	if on != off {
		t.Fatalf("metrics sink changed allocations per run: off %v, on %v", off, on)
	}
}

// TestTraceDeterministicUnderChaos runs the same seeded schedule + chaos
// plan twice and demands byte-identical JSONL traces — the reproducibility
// contract -trace advertises.
func TestTraceDeterministicUnderChaos(t *testing.T) {
	trace := func() []byte {
		src := rng.New(99)
		n := 48
		g := gen.GNP(n, 6*math.Log(float64(n))/float64(n), src.Split())
		b := make([]int, n)
		for i := range b {
			b[i] = 3 + src.Intn(3)
		}
		s := mustSolve(t, g, b, "general", 1, 10, src.Split())
		plan := chaos.Merge(
			chaos.Crashes(g, 8, 6, src.Split()),
			chaos.LeakSpikes(g, 6, 2, 6, src.Split()),
		)
		var buf bytes.Buffer
		jsonl := obs.NewJSONL(&buf)
		h := obs.Hooks{Trace: jsonl}
		net := energy.NewNetwork(g, b)
		Run(net, s, Options{K: 1, Chaos: plan, Hooks: h})
		if err := jsonl.Err(); err != nil {
			t.Fatalf("jsonl sink: %v", err)
		}
		return buf.Bytes()
	}
	a, b := trace(), trace()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical seeds produced different traces")
	}
}

// discardTracer drops every event: the cheapest non-nil sink, so the
// obs=trace case isolates the cost of building and emitting events.
type discardTracer struct{}

func (discardTracer) Emit(obs.Event) {}

// BenchmarkRun times one full Run of a general-algorithm schedule on a GNP
// network with n = 512, rebuilding the network each op because Run drains
// it. The three cases differ only in the hooks: none (the instrumented but
// idle hot path), a metrics sink, and a trace sink consuming every event.
// The gap between obs=off and the other two is the observability overhead
// docs/OBSERVABILITY.md reports.
func BenchmarkRun(b *testing.B) {
	n := 512
	src := rng.New(42)
	g := gen.GNP(n, 8*math.Log(float64(n))/float64(n), src)
	bt := make([]int, n)
	for i := range bt {
		bt[i] = 4 + src.Intn(4)
	}
	s := mustSolve(b, g, bt, "general", 1, 5, rng.New(7))
	for _, c := range []struct {
		name  string
		hooks obs.Hooks
	}{
		{"obs=off", obs.Hooks{}},
		{"obs=metrics", obs.Hooks{Trace: obs.NewMetricsSink(obs.NewRegistry())}},
		{"obs=trace", obs.Hooks{Trace: discardTracer{}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Run(energy.NewNetwork(g, bt), s, Options{K: 1, Hooks: c.hooks})
			}
		})
	}
}
