package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/solver"
)

// pathRequests is the request set of TestSameBytesOnEveryPath: every
// registry algorithm on the 4×3 grid at battery 2 (so exact stays in
// milliseconds), unrefined and under tabu, whole and in 2 and 4 shards, at
// k 1 and 2, all at refinement budget 2000. The combinations a solver
// rejects stay in: their errors must not move either.
func pathRequests() []Request {
	var reqs []Request
	for _, alg := range solver.Names() {
		for _, refine := range []string{"", solver.NameTabu} {
			for _, shards := range []int{0, 2, 4} {
				for _, k := range []int{1, 2} {
					reqs = append(reqs, Request{Graph: gridSpec(4, 3), Algorithm: alg, Battery: 2, K: k,
						Refine: refine, Budget: 2000, Shards: shards, Seed: 5})
				}
			}
		}
	}
	return reqs
}

// unrelatedTraffic leaves larger graphs' buffers in the pools a schedule
// request reuses: GreedyK's arrays, GreedyPhase's mask and serve's bodies.
var unrelatedTraffic = []Request{
	{Graph: gridSpec(12, 12), Algorithm: solver.NameGreedy, Battery: 3, Refine: solver.NameTabu, Budget: 2000, Seed: 11},
	{Graph: gridSpec(12, 12), Algorithm: solver.NameGreedy, Battery: 4, K: 2, Shards: 3, Seed: 7},
	{Graph: ring(40), Algorithm: AlgGeneral, Batteries: []int{
		1, 4, 2, 3, 5, 1, 2, 4, 3, 1, 2, 5, 4, 1, 3, 2, 1, 4, 2, 3,
		5, 1, 2, 4, 3, 1, 2, 5, 4, 1, 3, 2, 1, 4, 2, 3, 5, 1, 2, 4}, Seed: 2},
}

// maskedFields matches the top-level response members that may differ
// between two answers to one request: the solve time and how the answer
// was delivered.
var maskedFields = regexp.MustCompile(`(?m)^  "(solve_ms|cached|coalesced)": .*\n`)

// answer returns w's status and body with maskedFields cut out.
func answer(w *httptest.ResponseRecorder) string {
	return fmt.Sprintf("%d %s", w.Code, maskedFields.ReplaceAll(w.Body.Bytes(), nil))
}

// describe names a request of pathRequests in failure messages.
func describe(r Request) string {
	return fmt.Sprintf("%s refine=%q shards=%d k=%d", r.Algorithm, r.Refine, r.Shards, r.K)
}

// answerAll posts warmup and then bodies, in the given order, to a fresh
// server at width, and returns the answers by body index.
func answerAll(t *testing.T, width int, bodies [][]byte, order []int, warmup []Request) []string {
	t.Helper()
	s := New(Config{RaceWidth: width, CacheSize: 4096})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	for _, req := range warmup {
		if w := post(h, "/v1/schedule", scheduleBody(t, req)); w.Code != http.StatusOK {
			t.Fatalf("unrelated %s: status %d: %s", describe(req), w.Code, w.Body.String())
		}
	}
	out := make([]string, len(bodies))
	for _, i := range order {
		out[i] = answer(post(h, "/v1/schedule", bodies[i]))
	}
	return out
}

// TestSameBytesOnEveryPath pins that a response is a pure function of the
// request and the server's race width: whatever the order of requests, the
// traffic before them, GOMAXPROCS, or the path the answer takes — cold
// miss, full-path hit, alias hit, coalesced waiter, async poll, or a
// sharded solve on a warm shard cache — one request gets the same status
// and bytes, up to maskedFields.
func TestSameBytesOnEveryPath(t *testing.T) {
	reqs := pathRequests()
	bodies := make([][]byte, len(reqs))
	inOrder := make([]int, len(reqs))
	for i, req := range reqs {
		bodies[i] = scheduleBody(t, req)
		inOrder[i] = i
	}
	shuffled := rand.New(rand.NewSource(1)).Perm(len(reqs))
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			want := answerAll(t, width, bodies, inOrder, nil)
			check := func(run string, got []string) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: %s answered\n%s\nwant, as in order on a fresh server,\n%s",
							run, describe(reqs[i]), got[i], want[i])
					}
				}
			}
			check("shuffled after unrelated traffic", answerAll(t, width, bodies, shuffled, unrelatedTraffic))
			for _, procs := range []int{1, 4} {
				var got []string
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					got = answerAll(t, width, bodies, inOrder, nil)
				}()
				check(fmt.Sprintf("GOMAXPROCS %d", procs), got)
			}
			checkPaths(t, width, reqs, bodies, want)
		})
	}
}

// checkPaths sends every request that want answers with 200 along each
// path one request can take, and requires want's answer on each.
func checkPaths(t *testing.T, width int, reqs []Request, bodies [][]byte, want []string) {
	cfg := Config{RaceWidth: width, CacheSize: 4096}
	s := New(cfg) // cold misses, then full-path, alias and warm-shard hits
	twins := New(cfg)
	async := New(cfg)
	gate := &gateFault{entered: make(chan string), release: make(chan struct{})}
	cfg.Fault = gate
	gated := New(cfg)
	for _, srv := range []*Server{s, twins, async, gated} {
		defer srv.Shutdown(context.Background())
	}
	defer close(gate.release) // runs first: frees a job a failed check left at the gate
	h := s.Handler()
	served := 0
	for i, req := range reqs {
		if !strings.HasPrefix(want[i], "200 ") {
			continue
		}
		served++
		expect := func(path string, w *httptest.ResponseRecorder) {
			t.Helper()
			if got := answer(w); got != want[i] {
				t.Fatalf("%s, %s: answered\n%s\nwant\n%s", describe(req), path, got, want[i])
			}
		}

		expect("cold miss", post(h, "/v1/schedule", bodies[i]))
		other := reordered(t, bodies[i])
		aliasHits := counter(s, "serve.alias_hits")
		expect("full-path hit", post(h, "/v1/schedule", other))
		expect("alias hit", post(h, "/v1/schedule", other))
		if got := counter(s, "serve.alias_hits") - aliasHits; got != 1 {
			t.Fatalf("%s: %d alias hits from a full-path hit and its repeat, want 1", describe(req), got)
		}

		// The gate holds the first request's job, so the second waits on it.
		first, second := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
		go func() { first <- post(gated.Handler(), "/v1/schedule", bodies[i]) }()
		<-gate.entered
		coalesced := counter(gated, "serve.coalesced")
		go func() { second <- post(gated.Handler(), "/v1/schedule", bodies[i]) }()
		waitCounter(t, gated, "serve.coalesced", coalesced+1)
		gate.release <- struct{}{}
		expect("gated job", <-first)
		expect("coalesced waiter", <-second)

		areq := req
		areq.Async = true
		w := post(async.Handler(), "/v1/schedule", scheduleBody(t, areq))
		if w.Code != http.StatusAccepted {
			t.Fatalf("%s, async: status %d: %s", describe(req), w.Code, w.Body.String())
		}
		waitCounter(t, async, "serve.completed", uint64(served))
		expect("async poll", get(async.Handler(), "/v1/jobs/"+decodeResponse(t, w)["key"].(string)))

		if req.Shards > 1 {
			// partitioner "bfs" is another request key over the same shard
			// keys: on s every shard hits the cache the cold miss filled.
			twin := req
			twin.Partitioner = "bfs"
			body := scheduleBody(t, twin)
			cold := answer(post(twins.Handler(), "/v1/schedule", body))
			solves := counter(s, "serve.shard_solves")
			if warm := answer(post(h, "/v1/schedule", body)); warm != cold {
				t.Fatalf("%s, partitioner bfs on a warm shard cache: answered\n%s\nwant, as on a cold one,\n%s",
					describe(req), warm, cold)
			}
			if got := counter(s, "serve.shard_solves"); got != solves {
				t.Fatalf("%s, partitioner bfs: solved %d shards on a warm shard cache", describe(req), got-solves)
			}
		}
	}
	if served == 0 {
		t.Fatal("no request of the set was answered with 200")
	}
}

// reordered returns body with its object members in another order: the
// same request under another digest.
func reordered(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(m) // map keys marshal sorted
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, body) {
		t.Fatalf("reordering left the body as it was: %s", body)
	}
	return out
}
