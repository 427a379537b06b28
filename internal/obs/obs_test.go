package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0, 0.5, 1})
	for _, v := range []float64{0, 0.25, 0.5, 0.75, 1, 2} {
		h.Observe(v)
	}
	want := []uint64{1, 2, 2, 1} // (-inf,0], (0,0.5], (0.5,1], overflow
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 4.5 {
		t.Fatalf("sum = %g, want 4.5", h.Sum())
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Fatal("second Counter lookup returned a different instance")
	}
	if reg.Histogram("h", []float64{1}) != reg.Histogram("h", []float64{1, 2}) {
		t.Fatal("second Histogram lookup returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch accepted")
		}
	}()
	reg.Gauge("x")
}

func TestRegistrySnapshotSortedAndServed(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Gauge("a.level").Set(-1)
	reg.Histogram("c.cov", CoverageBounds).Observe(0.5)
	snaps := reg.Snapshot()
	if len(snaps) != 3 || snaps[0].Name != "a.level" || snaps[1].Name != "b.count" || snaps[2].Name != "c.cov" {
		t.Fatalf("snapshot not name-sorted: %+v", snaps)
	}
	var sb strings.Builder
	if err := reg.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "b.count") || !strings.Contains(sb.String(), "count=1") {
		t.Fatalf("summary missing metrics:\n%s", sb.String())
	}

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"name": "c.cov"`) {
		t.Fatalf("HTTP snapshot wrong: %d %s", rec.Code, rec.Body.String())
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("empty Tee should be nil")
	}
	var m Memory
	if Tee(nil, &m) != Tracer(&m) {
		t.Fatal("single-sink Tee should return the sink itself")
	}
	var m2 Memory
	tee := Tee(&m, &m2)
	tee.Emit(SlotStart(0))
	if len(m.Events) != 1 || len(m2.Events) != 1 {
		t.Fatalf("Tee did not fan out: %d/%d", len(m.Events), len(m2.Events))
	}
}

func TestMetricsSinkAggregates(t *testing.T) {
	reg := NewRegistry()
	sink := NewMetricsSink(reg)
	h := Hooks{Trace: sink}
	h.Emit(RunStart("sensim", 4))
	h.Emit(SlotEnd(0, 2, 4, 1))
	h.Emit(SlotEnd(1, 2, 3, 0.5))
	h.Emit(Crash(1, 2))
	h.Emit(Leak(1, 0, 2))
	h.Emit(Round(0, 12, 3))
	h.Emit(Patch(1, 0, 1))
	h.Emit(Recruit(1, 1))
	h.Emit(Replan(2, 5))
	h.Emit(Degraded(2, 1))
	h.Emit(TrialEnd("E1", 0))
	checks := map[string]uint64{
		"sim.runs": 1, "sim.slots": 2,
		"chaos.crashes": 1, "chaos.leaks": 1,
		"net.rounds": 1, "net.messages": 12, "net.dropped": 3,
		"heal.patch_attempts": 1, "heal.recruits": 1, "heal.replans": 1,
		"heal.degraded_slots": 1, "exp.trials": 1,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("sim.alive").Value(); got != 3 {
		t.Errorf("sim.alive = %d, want 3", got)
	}
	if got := reg.Histogram("sim.coverage", CoverageBounds).Count(); got != 2 {
		t.Errorf("coverage count = %d, want 2", got)
	}
}

func TestJSONLEncoding(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{RunStart("sensim", 7), `{"e":"run_start","name":"sensim","nodes":7}`},
		{RunEnd("heal", 10, 8, 2), `{"e":"run_end","name":"heal","slots":10,"achieved":8,"deaths":2}`},
		{SlotStart(3), `{"e":"slot_start","t":3}`},
		{SlotEnd(3, 2, 7, 6.0/7), `{"e":"slot_end","t":3,"served":2,"alive":7,"cov":0.8571428571428571}`},
		{Crash(4, 12), `{"e":"crash","t":4,"node":12}`},
		{Leak(4, 2, 3), `{"e":"leak","t":4,"node":2,"amount":3}`},
		{Round(1, 24, 5), `{"e":"round","round":1,"sent":24,"dropped":5}`},
		{Patch(5, 1, 2), `{"e":"patch","t":5,"attempt":1,"enlisted":2}`},
		{Recruit(5, 9), `{"e":"recruit","t":5,"node":9}`},
		{Replan(6, 4), `{"e":"replan","t":6,"lifetime":4}`},
		{Degraded(6, 3), `{"e":"degraded","t":6,"uncovered":3}`},
		{TrialStart("E23", 2), `{"e":"trial_start","name":"E23","trial":2}`},
		{TrialEnd("E23", 2), `{"e":"trial_end","name":"E23","trial":2}`},
		{Reconfig(9, 2, 6, "clean"), `{"e":"reconfig","name":"clean","t":9,"overlap":2,"energy":6}`},
		{Reconfig(9, 0, 0, "degraded"), `{"e":"reconfig","name":"degraded","t":9,"overlap":0,"energy":0}`},
		{WakeMiss(10, 4), `{"e":"wake_miss","t":10,"node":4}`},
	}
	for _, c := range cases {
		if got := string(AppendJSON(nil, c.ev)); got != c.want {
			t.Errorf("AppendJSON(%v):\n got %s\nwant %s", c.ev.Type, got, c.want)
		}
	}
}

func TestJSONLSinkWritesLines(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	sink.Emit(SlotStart(0))
	sink.Emit(SlotEnd(0, 1, 2, 1))
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	want := "{\"e\":\"slot_start\",\"t\":0}\n{\"e\":\"slot_end\",\"t\":0,\"served\":1,\"alive\":2,\"cov\":1}\n"
	if buf.String() != want {
		t.Fatalf("sink wrote:\n%swant:\n%s", buf.String(), want)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "fail" }

func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONL(failWriter{})
	sink.Emit(SlotStart(0))
	sink.Emit(SlotStart(1))
	if sink.Err() == nil {
		t.Fatal("write error not surfaced")
	}
}

// The allocation pins: the instrumented runtimes stay allocation-free per
// slot/round when tracing is off (zero Hooks) and when aggregating into
// metrics. These are the obs half of the acceptance criterion; the runtime
// halves live in the sensim/distsim tests.
func TestAllocFreeHotPaths(t *testing.T) {
	var c Counter
	if a := testing.AllocsPerRun(1000, c.Inc); a != 0 {
		t.Errorf("Counter.Inc allocates %v/op", a)
	}
	var g Gauge
	if a := testing.AllocsPerRun(1000, func() { g.Set(3) }); a != 0 {
		t.Errorf("Gauge.Set allocates %v/op", a)
	}
	h := NewHistogram(CoverageBounds)
	if a := testing.AllocsPerRun(1000, func() { h.Observe(0.7) }); a != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", a)
	}
	var off Hooks
	if a := testing.AllocsPerRun(1000, func() { off.Emit(SlotEnd(1, 2, 3, 0.5)) }); a != 0 {
		t.Errorf("no-op Hooks.Emit allocates %v/op", a)
	}
	sink := NewMetricsSink(NewRegistry())
	on := Hooks{Trace: sink}
	if a := testing.AllocsPerRun(1000, func() { on.Emit(SlotEnd(1, 2, 3, 0.5)) }); a != 0 {
		t.Errorf("MetricsSink emit allocates %v/op", a)
	}
	jsonl := NewJSONL(&bytes.Buffer{})
	warm := Hooks{Trace: jsonl}
	warm.Emit(SlotEnd(100000, 1000, 1000, 0.123456789))
	// bytes.Buffer grows, so only the encoder itself is pinned here.
	if a := testing.AllocsPerRun(1000, func() {
		_ = AppendJSON(jsonl.buf[:0], SlotEnd(1, 2, 3, 0.5))
	}); a != 0 {
		t.Errorf("AppendJSON into warm buffer allocates %v/op", a)
	}
}

func TestMemoryCount(t *testing.T) {
	var m Memory
	m.Emit(SlotStart(0))
	m.Emit(SlotEnd(0, 1, 1, 1))
	m.Emit(SlotStart(1))
	if m.Count(EvSlotStart) != 2 || m.Count(EvSlotEnd) != 1 || m.Count(EvCrash) != 0 {
		t.Fatalf("counts wrong: %+v", m.Events)
	}
}
