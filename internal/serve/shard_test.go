package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/solver"
)

// gridSpec returns the w×h grid graph as a wire spec — the canonical
// instance with thin shard seams.
func gridSpec(w, h int) GraphSpec {
	var edges [][2]int
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, [2]int{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, [2]int{id(x, y), id(x, y+1)})
			}
		}
	}
	return GraphSpec{N: w * h, Edges: edges}
}

func TestScheduleShardedEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	req := Request{Graph: gridSpec(8, 8), Algorithm: solver.NameGreedy, Battery: 4, Shards: 4}
	w := post(h, "/v1/schedule", scheduleBody(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Lifetime <= 0 {
		t.Fatalf("sharded lifetime %d, want > 0", resp.Lifetime)
	}
	solves := counter(s, "serve.shard_solves")
	if solves < 2 {
		t.Fatalf("shard_solves = %d after a %d-shard solve", solves, req.Shards)
	}
	if hits := counter(s, "serve.shard_cache_hits"); hits != 0 {
		t.Fatalf("shard_cache_hits = %d on a cold cache", hits)
	}

	// The whole request is cached under its canonical key: a repeat is a
	// cache hit and runs no shard work at all.
	w = post(h, "/v1/schedule", scheduleBody(t, req))
	var again response
	if err := json.Unmarshal(w.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("identical sharded request missed the result cache")
	}
	if got := counter(s, "serve.shard_solves"); got != solves {
		t.Fatalf("repeat request re-solved shards (%d -> %d)", solves, got)
	}

	// A different shard count is a different request key AND different shard
	// keys (the partition changed), so it solves fresh.
	req2 := req
	req2.Shards = 2
	w = post(h, "/v1/schedule", scheduleBody(t, req2))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := counter(s, "serve.shard_solves"); got <= solves {
		t.Fatalf("different shard count did not solve fresh (%d -> %d)", solves, got)
	}
}

func TestScheduleShardValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	for _, tc := range []struct {
		name string
		mut  func(*Request)
	}{
		{"geom partitioner without coordinates", func(r *Request) { r.Shards = 2; r.Partitioner = "geom" }},
		{"unknown partitioner", func(r *Request) { r.Shards = 2; r.Partitioner = "metis" }},
	} {
		req := Request{Graph: ring(8), Algorithm: solver.NameGreedy, Battery: 3}
		tc.mut(&req)
		w := post(h, "/v1/schedule", scheduleBody(t, req))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, w.Code, w.Body.String())
		}
	}
}

// TestScheduleShardedEmptyGraph pins that a sharded request on the empty
// graph is answered like an unsharded one: 200 with an empty schedule.
func TestScheduleShardedEmptyGraph(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	body := []byte(`{"graph":{"n":0,"edges":[]},"algorithm":"greedy","battery":3,"shards":4}`)
	w := post(h, "/v1/schedule", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", w.Code, w.Body.String())
	}
	var resp response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Lifetime != 0 || resp.Phases != 0 {
		t.Fatalf("lifetime %d over %d phases, want the empty schedule", resp.Lifetime, resp.Phases)
	}
}

// TestPatchShardedResolvesOneShard is the compositional-caching acceptance
// check: after a sharded solve, a delta interior to one tile re-solves
// exactly that shard — every other shard's schedule is served from the
// content-addressed cache, which fingerprint invalidation never touches.
func TestPatchShardedResolvesOneShard(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	req := Request{Graph: gridSpec(8, 8), Algorithm: solver.NameGreedy, Battery: 4, Shards: 4}
	w := post(h, "/v1/schedule", scheduleBody(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var base response
	if err := json.Unmarshal(w.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}

	// Reach under the HTTP surface for the retained partition to find a
	// node interior to one shard (a delta there touches no halo).
	s.mu.Lock()
	res, ok := s.cache.get(base.Key)
	s.mu.Unlock()
	if !ok || res.ctx == nil || res.ctx.part == nil {
		t.Fatal("sharded result did not retain its partition")
	}
	part := res.ctx.part
	nShards := len(part.Shards)
	if nShards < 2 {
		t.Fatalf("partition has %d shards; need >= 2", nShards)
	}
	victim := -1
	for v := 0; v < res.ctx.inst.N() && victim == -1; v++ {
		victim = v
		for _, u := range res.ctx.inst.Graph.Neighbors(v) {
			if part.Assign[u] != part.Assign[v] {
				victim = -1
				break
			}
		}
	}
	if victim == -1 {
		t.Fatal("no interior node in any shard")
	}

	solves0 := counter(s, "serve.shard_solves")
	hits0 := counter(s, "serve.shard_cache_hits")

	w = patch(h, base.Fingerprint, patchBody(t, PatchRequest{
		Delta: graph.Delta{RemoveNodes: []int{victim}},
		At:    0,
	}))
	if w.Code != http.StatusOK {
		t.Fatalf("patch status %d: %s", w.Code, w.Body.String())
	}
	var resp response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "reconfig" {
		t.Fatalf("kind = %q, want reconfig", resp.Kind)
	}
	if resp.Violation {
		t.Fatal("sharded patch reported a violation on a feasible instance")
	}
	if resp.Lifetime <= 0 {
		t.Fatalf("transition lifetime %d, want > 0", resp.Lifetime)
	}

	if got := counter(s, "serve.shard_solves") - solves0; got != 1 {
		t.Fatalf("interior single-node delta re-solved %d shards, want exactly 1", got)
	}
	if got := counter(s, "serve.shard_cache_hits") - hits0; got != uint64(nShards-1) {
		t.Fatalf("%d shard cache hits on patch, want %d (all untouched shards)", got, nShards-1)
	}

	// The patch result stays sharded: a second interior delta against the
	// new fingerprint repeats the trick.
	s.mu.Lock()
	res2, ok := s.cache.get(resp.Key)
	s.mu.Unlock()
	if !ok || res2.ctx == nil || res2.ctx.part == nil {
		t.Fatal("patch result did not retain a rebased partition")
	}
}

// complete returns the complete graph K_n as a wire spec.
func complete(n int) GraphSpec {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return GraphSpec{N: n, Edges: edges}
}

// TestShardedJobRacesShards pins that a sharded job races every shard's
// solve at the server's width and counts each raced attempt: greedy accepts
// its first try, so a 4-shard job makes 4 attempts per unit of width.
func TestShardedJobRacesShards(t *testing.T) {
	req := Request{Graph: gridSpec(8, 8), Algorithm: solver.NameGreedy, Battery: 4, Shards: 4}
	for _, c := range []struct {
		width           int
		attempts, raced uint64
	}{{1, 4, 0}, {4, 16, 1}} {
		s := New(Config{Workers: 1, RaceWidth: c.width})
		if w := post(s.Handler(), "/v1/schedule", scheduleBody(t, req)); w.Code != http.StatusOK {
			t.Fatalf("width %d: status %d: %s", c.width, w.Code, w.Body.String())
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := counter(s, "serve.solver_attempts"); got != c.attempts {
			t.Errorf("width %d: serve.solver_attempts = %d, want %d", c.width, got, c.attempts)
		}
		if got := counter(s, "serve.solver_raced"); got != c.raced {
			t.Errorf("width %d: serve.solver_raced = %d, want %d", c.width, got, c.raced)
		}
	}

	// The served schedule is the one shard.SolveShards and shard.Stitch give
	// at the same width, partition and seed. The instance is K_32 at
	// kconst 1: every shard's local instance is the whole clique, which
	// uniform colors into several classes, so the raced attempts draw
	// different schedules and width 4 answers differently from width 1.
	// (A tiny grid shard gets one class, the whole shard, at any width.)
	req = Request{Graph: complete(32), Algorithm: AlgUniform, Battery: 2, KConst: 1, Shards: 4, Seed: 3}
	inst, err := req.resolve(100)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.BFS(inst.Graph, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	direct := func(width int) []byte {
		solved, err := shard.SolveShards(inst, p, shard.Options{
			Spec:   solver.Spec{Name: AlgUniform, KConst: 1},
			Solver: solver.Options{Tries: 30, RaceWidth: width},
			Seed:   3,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := shard.Stitch(inst, p, solved, obs.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.Schedule.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return compact(t, buf.Bytes())
	}
	want := direct(4)
	if bytes.Equal(want, direct(1)) {
		t.Fatal("K_32 gives one sharded schedule at widths 1 and 4; pick an instance that tells them apart")
	}
	s := New(Config{Workers: 1, RaceWidth: 4})
	defer s.Shutdown(context.Background())
	w := post(s.Handler(), "/v1/schedule", scheduleBody(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if got := compact(t, resp.Schedule); !bytes.Equal(got, want) {
		t.Fatalf("served sharded schedule at width 4\n%s\nwant the directly raced shards'\n%s", got, want)
	}
}

// compact returns the JSON text b without insignificant whitespace.
func compact(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPatchShardedRejectsSolverFields pins that a PATCH on a sharded base
// answers 400 to solver, seed or tries: the base's shard options re-solve
// the shards, so those fields would change nothing but the patch key. The
// same PATCH without them plans a transition.
func TestPatchShardedRejectsSolverFields(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	req := Request{Graph: gridSpec(8, 8), Algorithm: solver.NameGreedy, Battery: 4, Shards: 2}
	w := post(h, "/v1/schedule", scheduleBody(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var base response
	if err := json.Unmarshal(w.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	delta := graph.Delta{SetBudgets: []graph.BudgetUpdate{{Node: 1, Budget: 5}}}
	for _, tc := range []struct {
		field string
		mut   func(*PatchRequest)
	}{
		{"solver", func(r *PatchRequest) { r.Solver = solver.NameUniform }},
		{"seed", func(r *PatchRequest) { r.Seed = 3 }},
		{"tries", func(r *PatchRequest) { r.Tries = 5 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			preq := PatchRequest{Delta: delta}
			tc.mut(&preq)
			w := patch(h, base.Fingerprint, patchBody(t, preq))
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "sharded schedule") {
				t.Fatalf("status %d, want 400 naming the sharded schedule: %s", w.Code, w.Body.String())
			}
		})
	}
	if got := counter(s, "serve.reconfigs"); got != 0 {
		t.Fatalf("rejected patches planned %d transitions", got)
	}

	w = patch(h, base.Fingerprint, patchBody(t, PatchRequest{Delta: delta}))
	if w.Code != http.StatusOK {
		t.Fatalf("patch without solver fields: status %d: %s", w.Code, w.Body.String())
	}
	var resp response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "reconfig" {
		t.Fatalf("kind = %q, want reconfig", resp.Kind)
	}
}
