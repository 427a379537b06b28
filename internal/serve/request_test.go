package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/solver"
)

// hugeMS does not fit a time.Duration once converted to milliseconds.
const hugeMS = 9_300_000_000_000

// trailingJunk follows a valid JSON object in bodies every endpoint must
// reject; trailingSpace follows one in bodies every endpoint must accept.
var (
	trailingJunk  = []string{` trailing junk {"x":1}`, `{"x":1}`, `{}`, ` 1`, `]`, `x`}
	trailingSpace = []string{"", "\n", " \t\r\n"}
)

// TestTrailingBytesRejected pins that every body endpoint answers 400 when
// anything but JSON whitespace follows the object, and still accepts
// trailing whitespace such as the newline curl --data-binary @file sends.
func TestTrailingBytesRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	base := solveRing(t, h, 8, Request{Algorithm: AlgUniform, Battery: 3})

	endpoints := []struct {
		name string
		body []byte
		send func(body []byte) *httptest.ResponseRecorder
	}{
		{"POST /v1/schedule", scheduleBody(t, Request{Graph: ring(9), Algorithm: AlgUniform, Battery: 3}),
			func(b []byte) *httptest.ResponseRecorder { return post(h, "/v1/schedule", b) }},
		{"PATCH /v1/schedule/{fp}", patchBody(t, PatchRequest{Delta: growDelta(8, 3), At: 1}),
			func(b []byte) *httptest.ResponseRecorder { return patch(h, base.Fingerprint, b) }},
	}
	for _, ep := range endpoints {
		for _, tail := range trailingJunk {
			w := ep.send(append(append([]byte(nil), ep.body...), tail...))
			if w.Code != http.StatusBadRequest {
				t.Errorf("%s with %q appended: status %d, want 400 (%s)", ep.name, tail, w.Code, w.Body.String())
			}
		}
		for _, tail := range trailingSpace {
			w := ep.send(append(append([]byte(nil), ep.body...), tail...))
			if w.Code != http.StatusOK {
				t.Errorf("%s with %q appended: status %d, want 200 (%s)", ep.name, tail, w.Code, w.Body.String())
			}
		}
	}
}

// TestBodyPoolCarriesNoState puts a non-empty buffer into bodyPool before
// each request: a schedule miss, its alias hit, a full-path hit of the same
// request with members reordered, a PATCH, and a malformed body. Every
// response must carry the same status and bytes (solve_ms aside) as on a
// server whose requests each found a new buffer in the pool. Each request
// first takes out what the previous one put back, so without -race the next
// Get on this goroutine returns the buffer just put; the race detector drops
// pooled items at random, so there a request may miss its garbage.
func TestBodyPoolCarriesNoState(t *testing.T) {
	solveMS := regexp.MustCompile(`"solve_ms": [^,\n]+`)
	req := scheduleBody(t, Request{Graph: ring(8), Algorithm: AlgUniform, Battery: 3, Seed: 4})
	reordered := []byte(`{"seed":4,"battery":3,"algorithm":"uniform","graph":{"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0]],"n":8}}`)
	malformed := []byte(`{"graph":{"n":4,"edges":[[0,1],[1]]},"algorithm":"uniform","battery":2}`)
	run := func(garbage func() *bytes.Buffer) []string {
		s := New(Config{Workers: 1})
		defer s.Shutdown(context.Background())
		h := s.Handler()
		var out []string
		send := func(do func() *httptest.ResponseRecorder) *httptest.ResponseRecorder {
			bodyPool.Get()
			bodyPool.Put(garbage())
			w := do()
			out = append(out, fmt.Sprintf("%d %s", w.Code, solveMS.ReplaceAll(w.Body.Bytes(), []byte(`"solve_ms": 0`))))
			return w
		}
		miss := send(func() *httptest.ResponseRecorder { return post(h, "/v1/schedule", req) })
		var base Result
		if err := json.Unmarshal(miss.Body.Bytes(), &base); err != nil || base.Fingerprint == "" {
			t.Fatalf("schedule miss: %v: %s", err, miss.Body.String())
		}
		send(func() *httptest.ResponseRecorder { return post(h, "/v1/schedule", req) })
		send(func() *httptest.ResponseRecorder { return post(h, "/v1/schedule", reordered) })
		send(func() *httptest.ResponseRecorder {
			return patch(h, base.Fingerprint, patchBody(t, PatchRequest{Delta: growDelta(8, 3), At: 1}))
		})
		send(func() *httptest.ResponseRecorder { return post(h, "/v1/schedule", malformed) })
		return out
	}
	fresh := run(func() *bytes.Buffer { return new(bytes.Buffer) })
	poisoned := run(func() *bytes.Buffer { return bytes.NewBufferString(`{"graph":{"n":2},"algorithm":"greedy"}`) })
	for i := range fresh {
		if fresh[i] != poisoned[i] {
			t.Errorf("request %d: after garbage\n%s\nfresh\n%s", i, poisoned[i], fresh[i])
		}
	}
	for i, want := range []string{"200", "200", "200", "200", "400"} {
		if !strings.HasPrefix(fresh[i], want+" ") {
			t.Errorf("request %d: %s, want status %s", i, fresh[i], want)
		}
	}
}

// TestHugeTimeoutSaturates pins that millisecond fields too large for a
// time.Duration saturate instead of wrapping around to a deadline in the
// past.
func TestHugeTimeoutSaturates(t *testing.T) {
	if got := timeoutFromMS(hugeMS, 0); got != math.MaxInt64 {
		t.Fatalf("timeoutFromMS(%d) = %v, want the largest duration", hugeMS, got)
	}
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	timeout := solveRing(t, h, 8, Request{Algorithm: AlgUniform, Battery: 3, TimeoutMS: hugeMS})
	if timeout.Cached {
		t.Fatal("first request served from cache")
	}
	budget := Request{Graph: ring(8), Algorithm: solver.NameGreedy, Battery: 3,
		Refine: solver.NameTabu, TimeBudgetMS: hugeMS}
	if w := post(h, "/v1/schedule", scheduleBody(t, budget)); w.Code != http.StatusOK {
		t.Errorf("time_budget_ms %d: status %d, want 200 (%s)", hugeMS, w.Code, w.Body.String())
	}
	p := PatchRequest{Delta: growDelta(8, 3), At: 1, Algorithm: AlgUniform, TimeoutMS: hugeMS}
	if w := patch(h, timeout.Fingerprint, patchBody(t, p)); w.Code != http.StatusOK {
		t.Errorf("PATCH timeout_ms %d: status %d, want 200 (%s)", hugeMS, w.Code, w.Body.String())
	}
}

// FuzzScheduleRequest runs what POST /v1/schedule does to a body before
// admission — decode, resolve, key — on arbitrary input. The decode must
// agree with decodeStrict on the unmodified body: both fail, or both succeed
// with equal requests. Nothing may panic, every error must map to 400 or
// 413, and an accepted body must describe a valid instance whose request,
// encoded again, resolves to the same key.
func FuzzScheduleRequest(f *testing.F) {
	const maxNodes = 64
	for _, c := range aliasCases {
		body, err := json.Marshal(c.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		for _, tail := range append(trailingJunk, trailingSpace...) {
			f.Add(append(append([]byte(nil), body...), tail...))
		}
	}
	huge, err := json.Marshal(Request{Graph: ring(6), Algorithm: AlgUniform, Battery: 2,
		TimeoutMS: hugeMS, TimeBudgetMS: hugeMS})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(huge)
	for _, body := range []string{
		`{"graph":{"n":4,"edges":[[1]]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":2,"edges":[[1,1]]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":65,"edges":[]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"algorithm":"uniform","batteries":[1,2]}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"algorithm":"auto","refine":"tabu","unknown":1}`,
		`{not json`,
		// Keys encoding/json matches to graph and edges regardless of case,
		// by Unicode folding (U+017F folds to s) and after unescaping. All
		// but the first follow a plain list they must override.
		`{"Graph":{"N":3,"EDGES":[[0,1],[1,2]]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]],"EDGES":[[1,2]]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]],"edgeſ":[[1,2]]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"GRAPH":{"edges":[[1,2]]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"gr\u0061ph":{"edges":[[1,2]]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]],"edg\u0065s":[[1,2]]},"algorithm":"uniform","battery":2}`,
		// Repeated members: graph objects merge and the last edges wins.
		`{"graph":{"n":3,"edges":[[0,1]]},"graph":{"n":3},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]],"edges":[[1,2]]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]],"edges":null},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"graph":null,"algorithm":"uniform","battery":2}`,
		// edges outside a graph object, and a graph that is not an object.
		`{"graph":{"n":3},"edges":[[0,1]],"algorithm":"uniform","battery":2}`,
		`{"graph":[1,2],"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"x":{"edges":[[0,1]]}},"algorithm":"uniform","battery":2}`,
		// A string that spells an edges member.
		`{"graph":{"n":3,"edges":[]},"algorithm":"\"edges\":[[0,1]]","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"algorithm":"uniform\\","battery":2}`,
		" { \"graph\" :\t{ \"n\" : 3 ,\r\n\"edges\" : [ [ 0 , 1 ] , [ 1 , 2 ] ] } , \"algorithm\" : \"uniform\" , \"battery\" : 2 } \n",
		`{"graph":{"n":3,"edges":[[0,1],]},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]]x},"algorithm":"uniform","battery":2}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"algorithm":"general","batteries":[1,null,2]}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"algorithm":"uniform","battery":2}}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"algorithm":"uniform","battery":2} {"graph":{}}`,
		`{"graph":{"n":3,"edges":[[0,1]]}`,
		`null`, `{}`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want Request
		gotErr := decodeSchedule(body, &got)
		wantErr := decodeStrict(body, &want)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeSchedule: %+v, %v\ndecodeStrict: %+v, %v", got, gotErr, want, wantErr)
		}
		req, inst, key, err := parseSchedule(body, maxNodes)
		if err != nil {
			if code := errorStatus(err); code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("error %v maps to %d, want 400 or 413", err, code)
			}
			return
		}
		if err := inst.Graph.Validate(); err != nil {
			t.Fatalf("accepted graph invalid: %v", err)
		}
		if len(inst.Budgets) != inst.N() {
			t.Fatalf("%d budgets for %d nodes", len(inst.Budgets), inst.N())
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _, key2, err := parseSchedule(again, maxNodes)
		if err != nil {
			t.Fatalf("re-encoded request %s rejected: %v", again, err)
		}
		if key2 != key {
			t.Fatalf("re-encoded request keys %s, want %s", key2, key)
		}
	})
}

// TestRepeatedEdgesAllocationBounded pins that repeated edges members cannot
// each presize for the rest of the body: every list after the first is cut
// at its own end before it is parsed. Here 2000 one-edge lists precede a
// 20 000-edge list; presizing each for the rest would allocate over 600 MB.
func TestRepeatedEdgesAllocationBounded(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"graph":{"n":20001,`)
	for range 2000 {
		b.WriteString(`"edges":[[0,1]],`)
	}
	b.WriteString(`"edges":[`)
	for v := 0; v < 20000; v++ {
		if v > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", v, v+1)
	}
	b.WriteString(`]},"algorithm":"greedy","battery":1}`)
	body := []byte(b.String())

	var req Request
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeSchedule(body, &req)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Graph.Edges) != 20000 {
		t.Fatalf("decoded %d edges, want the last list's 20000", len(req.Graph.Edges))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Errorf("decoding a %d-byte body allocated %d bytes, want under 16 MB", len(body), alloc)
	}
}

// sinkKey keeps the measured calls from being optimized away.
var sinkKey string

// BenchmarkParseSchedule times what POST /v1/schedule does to a body before
// admission — decode, resolve, key — on the shard-large body shape: a UDG
// with n = 2048 and r = 0.115 (about 0.86 MB of JSON), greedy, battery 8,
// four bfs shards.
func BenchmarkParseSchedule(b *testing.B) {
	g, _ := gen.RandomUDG(2048, 1, 0.115, rng.New(1))
	spec := GraphSpec{N: g.N()}
	g.Edges(func(u, v int) { spec.Edges = append(spec.Edges, [2]int{u, v}) })
	body, err := json.Marshal(Request{Graph: spec, Algorithm: solver.NameGreedy,
		Battery: 8, Shards: 4, Partitioner: "bfs"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, key, err := parseSchedule(body, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		sinkKey = key
	}
}
