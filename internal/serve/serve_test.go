package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/solver"
)

// ring returns the cycle graph C_n as a wire spec.
func ring(n int) GraphSpec {
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return GraphSpec{N: n, Edges: edges}
}

func scheduleBody(t *testing.T, req Request) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	h.ServeHTTP(w, r)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// counter reads a service counter by name.
func counter(s *Server, name string) uint64 {
	return s.Registry().Counter(name).Value()
}

// cacheLen reads the result-cache size under the server lock.
func cacheLen(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// waitCounter polls until the counter reaches want or the deadline passes.
func waitCounter(t *testing.T, s *Server, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if counter(s, name) >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s = %d, want >= %d", name, counter(s, name), want)
}

// gateFault blocks every worker invocation until released — the test's
// handle on "a job is in flight right now".
type gateFault struct {
	entered chan string   // receives the job key at invocation (if non-nil)
	release chan struct{} // close to let all invocations proceed
}

func (g *gateFault) Invoke(key string) error {
	if g.entered != nil {
		g.entered <- key
	}
	<-g.release
	return nil
}

func decodeResponse(t *testing.T, w *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("response %q: %v", w.Body.String(), err)
	}
	return m
}

func TestScheduleEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	req := Request{Graph: ring(8), Algorithm: AlgUniform, Battery: 3, Seed: 7}
	w := post(h, "/v1/schedule", scheduleBody(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first request reported cached")
	}
	if resp.Lifetime < 3 {
		t.Fatalf("lifetime %d < battery 3 (C_8 admits at least one dominating phase)", resp.Lifetime)
	}
	// The returned schedule must be feasible on the requested instance.
	sched, err := core.ReadJSON(bytes.NewReader(resp.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := req.resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(inst.Graph, inst.Budgets, 1); err != nil {
		t.Fatalf("served schedule infeasible: %v", err)
	}

	// A repeated identical request is a cache hit with the same payload.
	w2 := post(h, "/v1/schedule", scheduleBody(t, req))
	if w2.Code != http.StatusOK {
		t.Fatalf("repeat status %d", w2.Code)
	}
	m := decodeResponse(t, w2)
	if m["cached"] != true {
		t.Fatalf("repeat request not served from cache: %v", m)
	}
	if got, want := counter(s, "serve.cache_hits"), uint64(1); got != want {
		t.Fatalf("serve.cache_hits = %d, want %d", got, want)
	}

	// A different seed is a different key: miss, fresh computation.
	req.Seed = 8
	w3 := post(h, "/v1/schedule", scheduleBody(t, req))
	if m := decodeResponse(t, w3); m["cached"] == true {
		t.Fatal("different seed served from cache")
	}
	if got := counter(s, "serve.cache_misses"); got != 2 {
		t.Fatalf("serve.cache_misses = %d, want 2", got)
	}
}

func TestIdenticalConcurrentRequestsCoalesce(t *testing.T) {
	gate := &gateFault{entered: make(chan string, 1), release: make(chan struct{})}
	s := New(Config{Workers: 1, Fault: gate})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	const clients = 8
	body := scheduleBody(t, Request{Graph: ring(10), Algorithm: AlgUniform, Battery: 4, Seed: 3})
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post(h, "/v1/schedule", body).Code
		}(i)
	}
	<-gate.entered // the single computation is running and blocked
	// Wait until every other client has been admitted as a coalescer.
	waitCounter(t, s, "serve.coalesced", clients-1)
	close(gate.release)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d got status %d", i, code)
		}
	}
	if got := counter(s, "serve.admitted"); got != 1 {
		t.Fatalf("serve.admitted = %d, want 1 (one computation for %d clients)", got, clients)
	}
	if got := counter(s, "serve.completed"); got != 1 {
		t.Fatalf("serve.completed = %d, want 1", got)
	}
	if got := counter(s, "serve.coalesced"); got != clients-1 {
		t.Fatalf("serve.coalesced = %d, want %d", got, clients-1)
	}
	if got := counter(s, "serve.cache_misses"); got != 1 {
		t.Fatalf("serve.cache_misses = %d, want 1", got)
	}
}

func TestQueueOverflowReturns429(t *testing.T) {
	gate := &gateFault{entered: make(chan string, 8), release: make(chan struct{})}
	// One worker, one queue slot, in-flight cap out of the way: the third
	// distinct job must overflow the queue.
	s := New(Config{Workers: 1, QueueDepth: 1, MaxInFlight: 100, Fault: gate})
	defer s.Shutdown(context.Background())
	defer close(gate.release) // before Shutdown (LIFO) so the drain can finish
	h := s.Handler()

	mk := func(seed uint64) []byte {
		return scheduleBody(t, Request{Graph: ring(6), Algorithm: AlgUniform, Battery: 2, Seed: seed, Async: true})
	}
	if w := post(h, "/v1/schedule", mk(1)); w.Code != http.StatusAccepted {
		t.Fatalf("job 1 status %d", w.Code)
	}
	<-gate.entered // job 1 occupies the worker, not a queue slot
	if w := post(h, "/v1/schedule", mk(2)); w.Code != http.StatusAccepted {
		t.Fatalf("job 2 status %d", w.Code)
	}
	w := post(h, "/v1/schedule", mk(3))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow job status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := counter(s, "serve.rejected_queue_full"); got != 1 {
		t.Fatalf("serve.rejected_queue_full = %d, want 1", got)
	}
}

func TestInFlightCapReturns429(t *testing.T) {
	gate := &gateFault{entered: make(chan string, 8), release: make(chan struct{})}
	s := New(Config{Workers: 1, QueueDepth: 8, MaxInFlight: 1, Fault: gate})
	defer s.Shutdown(context.Background())
	defer close(gate.release) // before Shutdown (LIFO) so the drain can finish
	h := s.Handler()

	mk := func(seed uint64) []byte {
		return scheduleBody(t, Request{Graph: ring(6), Algorithm: AlgUniform, Battery: 2, Seed: seed, Async: true})
	}
	if w := post(h, "/v1/schedule", mk(1)); w.Code != http.StatusAccepted {
		t.Fatalf("job 1 status %d", w.Code)
	}
	<-gate.entered
	if w := post(h, "/v1/schedule", mk(2)); w.Code != http.StatusTooManyRequests {
		t.Fatalf("in-flight overflow status %d, want 429", w.Code)
	}
	if got := counter(s, "serve.rejected_inflight"); got != 1 {
		t.Fatalf("serve.rejected_inflight = %d, want 1", got)
	}
}

func TestDeadlineCancelsInFlightJob(t *testing.T) {
	gate := &gateFault{entered: make(chan string, 1), release: make(chan struct{})}
	s := New(Config{Workers: 1, Fault: gate})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	body := scheduleBody(t, Request{Graph: ring(6), Algorithm: AlgUniform, Battery: 2, Seed: 1, TimeoutMS: 30})
	w := post(h, "/v1/schedule", body)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	// The worker is still stuck in the fault; once it proceeds, the solver's
	// first cancel poll must fire and the job must count as canceled — the
	// solver.ErrCanceled contract.
	close(gate.release)
	waitCounter(t, s, "serve.canceled", 1)
	if got := counter(s, "serve.completed"); got != 0 {
		t.Fatalf("serve.completed = %d for a canceled job", got)
	}
	if cacheLen(s) != 0 {
		t.Fatal("canceled job left a cache entry")
	}
}

// TestDeadlineDuringRefinementCachesNothing: a request deadline that fires
// while tabu is refining cancels the job. The refiner stops at its next
// move, but the job must count as canceled and leave nothing in the cache —
// not its truncated schedule under a key that excludes timeout_ms, and on a
// sharded request not the truncated shard schedules either.
func TestDeadlineDuringRefinementCachesNothing(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := New(Config{Workers: 1})
			defer s.Shutdown(context.Background())
			req := Request{Graph: ring(200), Algorithm: solver.NameGreedy, Battery: 3,
				Refine: solver.NameTabu, Budget: 2_000_000_000, Shards: shards, TimeoutMS: 100}
			if w := post(s.Handler(), "/v1/schedule", scheduleBody(t, req)); w.Code != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
			}
			// The handler answers at the deadline; the job ends at the
			// refiner's next poll.
			s.Shutdown(context.Background())
			if got := counter(s, "serve.canceled"); got != 1 {
				t.Errorf("serve.canceled = %d, want 1", got)
			}
			if got := counter(s, "serve.completed"); got != 0 {
				t.Errorf("serve.completed = %d for a job its deadline canceled", got)
			}
			if n := cacheLen(s); n != 0 {
				t.Fatalf("canceled refinement left %d cache entries", n)
			}
		})
	}
}

// TestCancellationErrorSurfaces pins, white box, that a job past its
// deadline finishes with solver.ErrCanceled — not a timeout wrapper,
// not a success.
func TestCancellationErrorSurfaces(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ran := false
	_, j, _, status := s.admit("k1", "schedule", -time.Second, // deadline already passed
		func(cancel func() bool) (*Result, error) {
			ran = true
			return &Result{}, nil
		})
	if status != 0 || j == nil {
		t.Fatalf("admit failed: status %d", status)
	}
	<-j.done
	if !errors.Is(j.err, solver.ErrCanceled) {
		t.Fatalf("job error = %v, want solver.ErrCanceled", j.err)
	}
	if ran {
		t.Fatal("expired job still ran the computation")
	}
}

func TestDrainFinishesAcceptedJobsAndRejectsNew(t *testing.T) {
	gate := &gateFault{entered: make(chan string, 8), release: make(chan struct{})}
	s := New(Config{Workers: 1, QueueDepth: 4, Fault: gate})
	h := s.Handler()

	mk := func(seed uint64) Request {
		return Request{Graph: ring(8), Algorithm: AlgUniform, Battery: 3, Seed: seed, Async: true}
	}
	keys := make([]string, 2)
	for i := range keys {
		w := post(h, "/v1/schedule", scheduleBody(t, mk(uint64(i+1))))
		if w.Code != http.StatusAccepted {
			t.Fatalf("job %d status %d", i, w.Code)
		}
		keys[i] = decodeResponse(t, w)["key"].(string)
	}
	<-gate.entered // job 0 running, job 1 queued

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	// Admission must flip to 503 immediately (healthz too), while the two
	// accepted jobs keep their claim.
	waitDraining := time.Now().Add(5 * time.Second)
	for !s.Draining() && time.Now().Before(waitDraining) {
		time.Sleep(time.Millisecond)
	}
	if w := post(h, "/v1/schedule", scheduleBody(t, mk(99))); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("admission during drain: status %d, want 503", w.Code)
	}
	if w := get(h, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", w.Code)
	}
	if got := counter(s, "serve.rejected_draining"); got != 1 {
		t.Fatalf("serve.rejected_draining = %d, want 1", got)
	}

	close(gate.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// No accepted job was dropped: both results are served from the cache.
	if got := counter(s, "serve.completed"); got != 2 {
		t.Fatalf("serve.completed = %d, want 2 (accepted jobs must finish)", got)
	}
	for i, key := range keys {
		w := get(h, "/v1/jobs/"+key)
		if w.Code != http.StatusOK {
			t.Fatalf("job %d lost during drain: status %d", i, w.Code)
		}
		if m := decodeResponse(t, w); m["cached"] != true {
			t.Fatalf("job %d not served from cache after drain: %v", i, m)
		}
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	gate := &gateFault{entered: make(chan string, 1), release: make(chan struct{})}
	s := New(Config{Workers: 1, Fault: gate})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	if w := get(h, "/v1/jobs/nonexistent"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", w.Code)
	}
	w := post(h, "/v1/schedule", scheduleBody(t,
		Request{Graph: ring(8), Algorithm: AlgFT, Battery: 4, K: 2, Seed: 5, Async: true}))
	if w.Code != http.StatusAccepted {
		t.Fatalf("async submit status %d: %s", w.Code, w.Body.String())
	}
	key := decodeResponse(t, w)["key"].(string)

	<-gate.entered
	if m := decodeResponse(t, get(h, "/v1/jobs/"+key)); m["status"] != "running" {
		t.Fatalf("in-flight job status %v, want running", m["status"])
	}
	close(gate.release)
	waitCounter(t, s, "serve.completed", 1)
	m := decodeResponse(t, get(h, "/v1/jobs/"+key))
	if m["cached"] != true || m["kind"] != "schedule" {
		t.Fatalf("finished job = %v", m)
	}
	if m["lifetime"].(float64) <= 0 {
		t.Fatalf("k=2-tolerant schedule on C_8 with b=4 has lifetime %v", m["lifetime"])
	}
}

func TestWorkerFaultFailsJob(t *testing.T) {
	s := New(Config{Workers: 1, Fault: chaos.NewWorkerFault(0, 1, 0, rng.New(3))})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	w := post(h, "/v1/schedule", scheduleBody(t,
		Request{Graph: ring(6), Algorithm: AlgUniform, Battery: 2, Seed: 1}))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
	}
	if got := counter(s, "serve.worker_faults"); got != 1 {
		t.Fatalf("serve.worker_faults = %d, want 1", got)
	}
	if got := counter(s, "serve.failed"); got != 1 {
		t.Fatalf("serve.failed = %d, want 1", got)
	}
	if cacheLen(s) != 0 {
		t.Fatal("failed job left a cache entry")
	}
}

func TestRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1, MaxNodes: 100})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	cases := []struct {
		name string
		req  Request
		want int
	}{
		{"unknown algorithm", Request{Graph: ring(4), Algorithm: "frob"}, 400},
		{"self loop", Request{Graph: GraphSpec{N: 2, Edges: [][2]int{{1, 1}}}, Algorithm: AlgUniform}, 400},
		{"duplicate edge", Request{Graph: GraphSpec{N: 3, Edges: [][2]int{{0, 1}, {1, 0}}}, Algorithm: AlgUniform}, 400},
		{"out of range edge", Request{Graph: GraphSpec{N: 2, Edges: [][2]int{{0, 5}}}, Algorithm: AlgUniform}, 400},
		{"negative battery", Request{Graph: ring(4), Algorithm: AlgUniform, Battery: -1}, 400},
		{"battery length", Request{Graph: ring(4), Algorithm: AlgGeneral, Batteries: []int{1, 2}}, 400},
		{"non-uniform for uniform", Request{Graph: ring(3), Algorithm: AlgUniform, Batteries: []int{1, 2, 1}}, 400},
		{"k on plain algorithm", Request{Graph: ring(4), Algorithm: AlgUniform, Battery: 2, K: 2}, 400},
		{"unknown refiner", Request{Graph: ring(4), Algorithm: AlgUniform, Battery: 2, Refine: "frob"}, 400},
		{"refine by plain solver", Request{Graph: ring(4), Algorithm: AlgUniform, Battery: 2, Refine: AlgGeneral}, 400},
		{"stacked refiner", Request{Graph: ring(4), Algorithm: solver.NameAnneal, Battery: 2, Refine: solver.NameTabu}, 400},
		{"negative budget", Request{Graph: ring(4), Algorithm: AlgUniform, Battery: 2, Budget: -1}, 400},
		{"negative time budget", Request{Graph: ring(4), Algorithm: AlgUniform, Battery: 2, TimeBudgetMS: -1}, 400},
		{"budget total past MaxInt", Request{Graph: ring(6), Algorithm: solver.NameGreedy, Battery: 9_000_000_000_000_000_000}, 400},
		{"batteries total past MaxInt", Request{Graph: GraphSpec{N: 2}, Algorithm: AlgGeneral, Batteries: []int{math.MaxInt, 1}}, 400},
		{"too many nodes", Request{Graph: GraphSpec{N: 101}, Algorithm: AlgUniform, Battery: 1}, 413},
		{"shards over the cap", Request{Graph: ring(4), Algorithm: AlgUniform, Battery: 2, Shards: maxShards + 1}, 400},
	}
	for _, c := range cases {
		if w := post(h, "/v1/schedule", scheduleBody(t, c.req)); w.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.want, w.Body.String())
		}
	}
	over := Request{Graph: ring(4), Algorithm: AlgUniform, Battery: 2, Shards: maxShards + 1}
	if w := post(h, "/v1/schedule", scheduleBody(t, over)); !strings.Contains(w.Body.String(), "cap of 64") {
		t.Errorf("shards over the cap: the 400 does not name the cap: %s", w.Body.String())
	}
	if w := post(h, "/v1/schedule", []byte("{not json")); w.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", w.Code)
	}
	// Edge pairs must be exactly two integers. encoding/json alone would read
	// these as {1,0}, {1,2}, {0,0} and {1,0}; the 400 names the element.
	for _, edges := range []string{`[[0,1],[1]]`, `[[0,1],[1,2,0]]`, `[[0,1],null]`, `[[0,1],[1,null]]`} {
		body := []byte(`{"graph":{"n":4,"edges":` + edges + `},"algorithm":"uniform","battery":2}`)
		w := post(h, "/v1/schedule", body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "element 1") {
			t.Errorf("edges %s: status %d, want 400 naming element 1: %s", edges, w.Code, w.Body.String())
		}
	}
	// None of the rejects should have touched the queue.
	if got := counter(s, "serve.admitted"); got != 0 {
		t.Errorf("serve.admitted = %d after pure rejects", got)
	}
}

// TestScheduleRefineRequest exercises the budgeted-refinement surface of the
// schedule endpoint: refine= composes a refinement solver over the base
// algorithm, the refined lifetime never drops below the unrefined one, and
// refine/budget/time_budget_ms are part of the cache key, so refined and
// plain requests for the same instance do not share entries.
func TestScheduleRefineRequest(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	// Heterogeneous batteries: with a uniform budget the greedy base already
	// sits on the min-degree bottleneck bound and refinement has no slack.
	batteries := []int{4, 1, 3, 2, 5, 1, 2, 6, 1, 3, 2, 4}
	base := Request{Graph: ring(12), Algorithm: solver.NameGreedy, Batteries: batteries, Seed: 5}
	w := post(h, "/v1/schedule", scheduleBody(t, base))
	if w.Code != http.StatusOK {
		t.Fatalf("base status %d: %s", w.Code, w.Body.String())
	}
	var plain response
	if err := json.Unmarshal(w.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}

	refined := base
	refined.Refine = solver.NameTabu
	refined.Budget = 2000
	w = post(h, "/v1/schedule", scheduleBody(t, refined))
	if w.Code != http.StatusOK {
		t.Fatalf("refined status %d: %s", w.Code, w.Body.String())
	}
	var out response
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("refined request served from the plain request's cache entry")
	}
	if out.Lifetime < plain.Lifetime {
		t.Fatalf("refined lifetime %d < unrefined %d (anytime floor broken)",
			out.Lifetime, plain.Lifetime)
	}
	// The refined schedule must still be feasible on the requested instance.
	sched, err := core.ReadJSON(bytes.NewReader(out.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := refined.resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(inst.Graph, inst.Budgets, 1); err != nil {
		t.Fatalf("served refined schedule infeasible: %v", err)
	}

	// An identical refined request is a cache hit; a different budget is not.
	if m := decodeResponse(t, post(h, "/v1/schedule", scheduleBody(t, refined))); m["cached"] != true {
		t.Fatalf("repeated refined request not served from cache: %v", m)
	}
	bumped := refined
	bumped.Budget = 4000
	if m := decodeResponse(t, post(h, "/v1/schedule", scheduleBody(t, bumped))); m["cached"] == true {
		t.Fatal("different budget served from cache")
	}

	// A tiny time budget truncates refinement to the best schedule so far —
	// it must not fail the request, unlike timeout_ms.
	trunc := refined
	trunc.TimeBudgetMS = 1
	w = post(h, "/v1/schedule", scheduleBody(t, trunc))
	if w.Code != http.StatusOK {
		t.Fatalf("time-budgeted status %d: %s", w.Code, w.Body.String())
	}
	if m := decodeResponse(t, w); int(m["lifetime"].(float64)) < plain.Lifetime {
		t.Fatalf("time-budgeted lifetime %v < unrefined %d", m["lifetime"], plain.Lifetime)
	}
}

// TestScheduleAutoRequest pins the service surface of the portfolio: an
// algorithm:"auto" request on a grid runs the dispatch and answers with a
// feasible schedule, the response and cache key carry the literal name
// "auto" (so repeats hit the cache without re-running classification), and
// stacking refine over an auto that resolves to the non-refinable grid fast
// path is rejected at decode time as a 400 — before any job is enqueued —
// while the same stack off-grid (auto → greedy) is accepted.
func TestScheduleAutoRequest(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	req := Request{Graph: gridSpec(6, 7), Algorithm: AlgAuto, Battery: 3, Seed: 9}
	w := post(h, "/v1/schedule", scheduleBody(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("auto status %d: %s", w.Code, w.Body.String())
	}
	var resp response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != AlgAuto {
		t.Fatalf("response algorithm %q, want the literal %q", resp.Algorithm, AlgAuto)
	}
	sched, err := core.ReadJSON(bytes.NewReader(resp.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := req.resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(inst.Graph, inst.Budgets, 1); err != nil {
		t.Fatalf("served auto schedule infeasible: %v", err)
	}
	// The tiling's rotation must clear the single-phase floor b = 3.
	if resp.Lifetime <= 3 {
		t.Fatalf("auto lifetime %d on a 6x7 grid does not beat one dominating phase", resp.Lifetime)
	}
	if m := decodeResponse(t, post(h, "/v1/schedule", scheduleBody(t, req))); m["cached"] != true {
		t.Fatalf("repeated auto request not served from cache: %v", m)
	}

	refined := req
	refined.Refine = solver.NameTabu
	w = post(h, "/v1/schedule", scheduleBody(t, refined))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("refine over auto→grid: status %d, want 400 (%s)", w.Code, w.Body.String())
	}
	if admitted := counter(s, "serve.admitted"); admitted != 1 {
		t.Fatalf("serve.admitted = %d after the decode-time reject, want 1 (the reject must not enqueue)", admitted)
	}

	offGrid := Request{Graph: ring(30), Algorithm: AlgAuto, Battery: 3, Refine: solver.NameTabu, Seed: 9}
	if w := post(h, "/v1/schedule", scheduleBody(t, offGrid)); w.Code != http.StatusOK {
		t.Fatalf("refine over auto→greedy off-grid: status %d (%s)", w.Code, w.Body.String())
	}
}

func TestHealthzAndMetricsShareTheMux(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	if w := get(h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	post(h, "/v1/schedule", scheduleBody(t,
		Request{Graph: ring(5), Algorithm: AlgUniform, Battery: 2, Seed: 2}))
	w := get(h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	var snaps []obs.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snaps); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, sn := range snaps {
		found[sn.Name] = true
	}
	for _, name := range []string{"serve.requests", "serve.admitted", "serve.latency_ms", "serve.queue_depth"} {
		if !found[name] {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}

// TestRealHTTPServer runs the full stack — StartHTTP, a real TCP port, the
// service mux, graceful Stop — as close to ltserve as a unit test gets.
func TestRealHTTPServer(t *testing.T) {
	s := New(Config{Workers: 2})
	hs, err := StartHTTP("127.0.0.1:0", s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + hs.Addr()

	body := scheduleBody(t, Request{Graph: ring(12), Algorithm: AlgGeneral,
		Batteries: []int{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}, Seed: 9})
	resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Lifetime < 1 {
		t.Fatalf("lifetime %d", out.Lifetime)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still reachable after Stop")
	}
}

// TestMetricsAccounting pins the admission-outcome identity documented on
// the metrics struct over a mixed workload.
func TestMetricsAccounting(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	for seed := uint64(1); seed <= 5; seed++ {
		body := scheduleBody(t, Request{Graph: ring(7), Algorithm: AlgUniform, Battery: 2, Seed: seed})
		post(h, "/v1/schedule", body) // miss
		post(h, "/v1/schedule", body) // hit
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, s)
	if got := counter(s, "serve.admitted"); got != counter(s, "serve.completed") {
		t.Fatalf("admitted %d != completed %d after drain", got, counter(s, "serve.completed"))
	}
}

// TestRaceWidthSolverMetrics pins the racing execution path of the service:
// with RaceWidth > 1 each executed schedule job increments serve.solver_raced
// (never serve.solver_sequential), WHP attempts are counted through the
// EvAttempt hook, and the racing knob stays invisible on the wire — the
// request succeeds with a feasible schedule exactly like the sequential
// server's, and cache hits skip the solver counters entirely.
func TestRaceWidthSolverMetrics(t *testing.T) {
	s := New(Config{Workers: 2, RaceWidth: 3})
	h := s.Handler()
	body := scheduleBody(t, Request{Graph: ring(9), Algorithm: AlgUniform, Battery: 2, Tries: 4})
	if w := post(h, "/v1/schedule", body); w.Code != http.StatusOK {
		t.Fatalf("raced schedule request: %d %s", w.Code, w.Body.String())
	}
	if w := post(h, "/v1/schedule", body); w.Code != http.StatusOK { // cache hit
		t.Fatalf("cached schedule request: %d %s", w.Code, w.Body.String())
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := counter(s, "serve.solver_raced"); got != 1 {
		t.Fatalf("serve.solver_raced = %d, want 1 (one executed job, one cache hit)", got)
	}
	if got := counter(s, "serve.solver_sequential"); got != 0 {
		t.Fatalf("serve.solver_sequential = %d on a racing server", got)
	}
	// 3 raced attempt streams, up to 4 tries each; at least one attempt ran.
	attempts := counter(s, "serve.solver_attempts")
	if attempts < 1 || attempts > 12 {
		t.Fatalf("serve.solver_attempts = %d, want in [1, 12]", attempts)
	}

	seq := New(Config{Workers: 1})
	hs := seq.Handler()
	if w := post(hs, "/v1/schedule", body); w.Code != http.StatusOK {
		t.Fatalf("sequential schedule request: %d %s", w.Code, w.Body.String())
	}
	if err := seq.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := counter(seq, "serve.solver_sequential"); got != 1 {
		t.Fatalf("serve.solver_sequential = %d, want 1", got)
	}
	if got := counter(seq, "serve.solver_raced"); got != 0 {
		t.Fatalf("serve.solver_raced = %d on a sequential server", got)
	}
}

// TestRequestKeyGolden pins the canonical cache key of a fixed request and of
// a fixed PATCH. Cached entries and retried requests are addressed by these
// sums, so they must not move when the hashing or decoding code changes.
func TestRequestKeyGolden(t *testing.T) {
	req := Request{
		Graph:     GraphSpec{N: 6, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}},
		Algorithm: AlgGeneral,
		Batteries: []int{3, 1, 4, 1, 5, 9},
		Seed:      7,
	}
	inst, err := req.resolve(100)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := req.key(inst), "29074d2ca020e45d7e97b91eab9ebbae1eae68397d28480ab25b4057815583aa"; got != want {
		t.Errorf("request key = %s, want %s", got, want)
	}
	p := PatchRequest{Delta: graph.Delta{RemoveNodes: []int{5}, AddNodes: 1, NewBudgets: []int{4}, AddEdges: [][2]int{{5, 0}, {5, 3}}}, At: 1}
	if got, want := p.key("abc", 2), "23ea648498ad0c801aa98614680da62745a89b1bc709ad897f50ee7834597771"; got != want {
		t.Errorf("patch key = %s, want %s", got, want)
	}
}
