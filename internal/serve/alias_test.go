package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/solver"
)

// aliasCases holds one request for each schedule path a body alias must
// answer exactly like the full path.
var aliasCases = []struct {
	name string
	req  Request
}{
	{"uniform", Request{Graph: ring(10), Algorithm: AlgUniform, Battery: 3, Seed: 4}},
	{"general", Request{Graph: ring(12), Algorithm: AlgGeneral,
		Batteries: []int{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}, Seed: 9}},
	{"ft k=2", Request{Graph: ring(8), Algorithm: AlgFT, Battery: 4, K: 2, Seed: 5}},
	{"auto", Request{Graph: gridSpec(6, 7), Algorithm: AlgAuto, Battery: 3, Seed: 9}},
	{"greedy+tabu", Request{Graph: ring(12), Algorithm: solver.NameGreedy,
		Batteries: []int{4, 1, 3, 2, 5, 1, 2, 6, 1, 3, 2, 4}, Refine: solver.NameTabu, Budget: 2000, Seed: 5}},
	{"shards", Request{Graph: gridSpec(8, 8), Algorithm: solver.NameGreedy, Battery: 4, Shards: 2}},
	{"async", Request{Graph: ring(9), Algorithm: AlgUniform, Battery: 2, Seed: 3, Async: true}},
}

// reversed returns req with its edge list in reverse order: another body
// with the same canonical key.
func reversed(req Request) Request {
	req.Graph.Edges = slices.Clone(req.Graph.Edges)
	slices.Reverse(req.Graph.Edges)
	return req
}

// checkAccounting asserts the admission-outcome identity of the metrics
// struct.
func checkAccounting(t *testing.T, s *Server) {
	t.Helper()
	requests := counter(s, "serve.requests")
	accounted := counter(s, "serve.cache_hits") + counter(s, "serve.coalesced") +
		counter(s, "serve.admitted") + counter(s, "serve.rejected_queue_full") +
		counter(s, "serve.rejected_inflight") + counter(s, "serve.rejected_draining")
	if requests != accounted {
		t.Fatalf("serve.requests = %d but outcomes sum to %d", requests, accounted)
	}
}

// checkAliases asserts that every alias names a live entry that holds it
// as its one digest, and returns the number of aliases.
func checkAliases(t *testing.T, s *Server) int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for digest, el := range s.cache.aliases {
		entry := el.Value.(*lruEntry)
		if !entry.aliased || entry.digest != digest || s.cache.items[entry.key] != el {
			t.Fatalf("alias %x names entry %s, which is evicted or holds another digest", digest[:4], entry.key)
		}
	}
	if n, entries := len(s.cache.aliases), s.cache.len(); n > entries {
		t.Fatalf("%d aliases for %d cache entries", n, entries)
	}
	return len(s.cache.aliases)
}

// TestAliasMatchesFullPath sends, for each case, a second byte form of the
// request (its edges reversed): its first POST is a full-path cache hit and
// its second an alias hit, and the two answers must be byte-identical.
func TestAliasMatchesFullPath(t *testing.T) {
	for _, c := range aliasCases {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{Workers: 2})
			defer s.Shutdown(context.Background())
			h := s.Handler()

			w := post(h, "/v1/schedule", scheduleBody(t, c.req))
			want := http.StatusOK
			if c.req.Async {
				want = http.StatusAccepted
			}
			if w.Code != want {
				t.Fatalf("first submission: status %d, want %d (%s)", w.Code, want, w.Body.String())
			}
			waitCounter(t, s, "serve.completed", 1)

			form := scheduleBody(t, reversed(c.req))
			full := post(h, "/v1/schedule", form)
			if full.Code != http.StatusOK || decodeResponse(t, full)["cached"] != true {
				t.Fatalf("second byte form: status %d, want a cache hit (%s)", full.Code, full.Body.String())
			}
			if got := counter(s, "serve.alias_hits"); got != 0 {
				t.Fatalf("serve.alias_hits = %d after a full-path hit, want 0", got)
			}
			if n := checkAliases(t, s); n != 1 {
				t.Fatalf("%d aliases, want 1: the second form replaces the first", n)
			}
			alias := post(h, "/v1/schedule", form)
			if got := counter(s, "serve.alias_hits"); got != 1 {
				t.Fatalf("serve.alias_hits = %d after the repeat, want 1", got)
			}
			if alias.Code != full.Code || !bytes.Equal(alias.Body.Bytes(), full.Body.Bytes()) ||
				alias.Header().Get("Content-Type") != full.Header().Get("Content-Type") {
				t.Fatalf("alias answer differs from the full path:\nalias %d %s\nfull  %d %s",
					alias.Code, alias.Body.String(), full.Code, full.Body.String())
			}
			checkAccounting(t, s)
		})
	}
}

// TestAliasDroppedByPatch pins that a PATCH on a fingerprint takes the
// aliases of the entries it invalidates along: the aliased body is solved
// again.
func TestAliasDroppedByPatch(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	body := scheduleBody(t, Request{Graph: ring(10), Algorithm: AlgUniform, Battery: 3, Seed: 4})
	var base response
	if err := json.Unmarshal(post(h, "/v1/schedule", body).Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	if w := post(h, "/v1/schedule", body); decodeResponse(t, w)["cached"] != true {
		t.Fatalf("repeat not cached: %s", w.Body.String())
	}
	if got := counter(s, "serve.alias_hits"); got != 1 {
		t.Fatalf("serve.alias_hits = %d, want 1", got)
	}
	if w := patch(h, base.Fingerprint, patchBody(t, PatchRequest{Delta: growDelta(10, 3), At: 1})); w.Code != http.StatusOK {
		t.Fatalf("patch status %d: %s", w.Code, w.Body.String())
	}
	if n := checkAliases(t, s); n != 0 {
		t.Fatalf("%d aliases survive the invalidation of their entry", n)
	}
	completed := counter(s, "serve.completed")
	w := post(h, "/v1/schedule", body)
	if w.Code != http.StatusOK || decodeResponse(t, w)["cached"] != false {
		t.Fatalf("superseded body: status %d, want a fresh solve (%s)", w.Code, w.Body.String())
	}
	if got := counter(s, "serve.completed"); got != completed+1 {
		t.Fatalf("serve.completed = %d, want %d: the body must be solved again", got, completed+1)
	}
	if got := counter(s, "serve.alias_hits"); got != 1 {
		t.Fatalf("serve.alias_hits = %d after the invalidation, want 1", got)
	}
	checkAccounting(t, s)
}

// TestAliasDroppedByEviction pins that evicting an entry drops its alias,
// on a one-entry cache.
func TestAliasDroppedByEviction(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	a := scheduleBody(t, Request{Graph: ring(8), Algorithm: AlgUniform, Battery: 3, Seed: 1})
	b := scheduleBody(t, Request{Graph: ring(8), Algorithm: AlgUniform, Battery: 3, Seed: 2})
	for i, step := range []struct {
		body      []byte
		cached    bool
		aliasHits uint64
	}{
		{a, false, 0}, // solved; a becomes the alias of its entry
		{a, true, 1},  // alias hit
		{b, false, 1}, // evicts a's entry and its alias
		{a, false, 1}, // solved again, evicting b's entry
		{a, true, 2},
	} {
		w := post(h, "/v1/schedule", step.body)
		if w.Code != http.StatusOK || decodeResponse(t, w)["cached"] != step.cached {
			t.Fatalf("step %d: status %d, want cached = %v (%s)", i, w.Code, step.cached, w.Body.String())
		}
		if got := counter(s, "serve.alias_hits"); got != step.aliasHits {
			t.Fatalf("step %d: serve.alias_hits = %d, want %d", i, got, step.aliasHits)
		}
		if n := checkAliases(t, s); n != 1 {
			t.Fatalf("step %d: %d aliases, want 1", i, n)
		}
		checkAccounting(t, s)
	}
}

// TestAliasStepsAsideWhileDraining pins that a draining server answers an
// aliased body 503 like any other, and that a 503 records no alias even
// for a body whose key is cached.
func TestAliasStepsAsideWhileDraining(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()

	req := Request{Graph: ring(8), Algorithm: AlgUniform, Battery: 3, Seed: 1}
	body := scheduleBody(t, req)
	post(h, "/v1/schedule", body)
	post(h, "/v1/schedule", body)
	if got := counter(s, "serve.alias_hits"); got != 1 {
		t.Fatalf("serve.alias_hits = %d, want 1", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, b := range [][]byte{body, scheduleBody(t, reversed(req))} {
		if w := post(h, "/v1/schedule", b); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("form %d while draining: status %d, want 503", i, w.Code)
		}
	}
	if got := counter(s, "serve.rejected_draining"); got != 2 {
		t.Fatalf("serve.rejected_draining = %d, want 2", got)
	}
	if got := counter(s, "serve.alias_hits"); got != 1 {
		t.Fatalf("serve.alias_hits = %d while draining, want 1", got)
	}
	checkAliases(t, s)
	s.mu.Lock()
	_, ok := s.cache.aliases[sha256.Sum256(body)]
	s.mu.Unlock()
	if !ok {
		t.Fatal("a 503 replaced the entry's alias")
	}
	checkAccounting(t, s)
}

// TestAliasConcurrent has eight goroutines post two byte forms of four
// requests to a two-entry cache, so aliases are recorded, replaced, hit and
// evicted concurrently. Every answer must carry the key and schedule a
// single-threaded server gives.
func TestAliasConcurrent(t *testing.T) {
	var forms [][]byte
	want := make([]response, 4)
	seq := New(Config{Workers: 1})
	for i := range want {
		req := Request{Graph: ring(10 + i), Algorithm: AlgUniform, Battery: 3, Seed: uint64(i + 1)}
		forms = append(forms, scheduleBody(t, req), scheduleBody(t, reversed(req)))
		if err := json.Unmarshal(post(seq.Handler(), "/v1/schedule", forms[2*i]).Body.Bytes(), &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, CacheSize: 2})
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				// Each form twice in a row, so an alias recorded by the
				// first post can answer the second.
				f := (g + i/2) % len(forms)
				w := post(h, "/v1/schedule", forms[f])
				var got response
				if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != http.StatusOK {
					t.Errorf("form %d: status %d (%s)", f, w.Code, w.Body.String())
					return
				}
				if exp := want[f/2]; got.Key != exp.Key || !bytes.Equal(got.Schedule, exp.Schedule) {
					t.Errorf("form %d: key %s, want %s, or the schedule differs", f, got.Key, exp.Key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAliases(t, s)
	checkAccounting(t, s)
}

// BenchmarkScheduleHit times a POST /v1/schedule cache hit on the
// hit-heavy graph shape, a UDG with n = 1024. "full" alternates two bodies
// that differ only in timeout_ms: each replaces the other's alias, so every
// iteration decodes, builds, classifies and hashes before the lookup.
// "alias" repeats one body, which its digest answers.
func BenchmarkScheduleHit(b *testing.B) {
	g, _ := gen.RandomUDG(1024, 1, 0.155, rng.New(1))
	spec := GraphSpec{N: g.N()}
	g.Edges(func(u, v int) { spec.Edges = append(spec.Edges, [2]int{u, v}) })
	var bodies [][]byte
	for _, timeout := range []int{30000, 30001} {
		body, err := json.Marshal(Request{Graph: spec, Algorithm: AlgUniform, Battery: 4, TimeoutMS: timeout})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	for _, mode := range []struct {
		name      string
		prime     []byte   // posted untimed to set the alias
		loop      [][]byte // posted in turn
		aliasHits bool
	}{
		{"full", bodies[1], bodies, false},
		{"alias", bodies[0], bodies[:1], true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			if w := post(h, "/v1/schedule", mode.prime); w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			before := counter(s, "serve.alias_hits")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w := post(h, "/v1/schedule", mode.loop[i%len(mode.loop)]); w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			want := uint64(0)
			if mode.aliasHits {
				want = uint64(b.N)
			}
			if got := counter(s, "serve.alias_hits") - before; got != want {
				b.Fatalf("%d alias hits in %d posts, want %d", got, b.N, want)
			}
		})
	}
}
