package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/solver"
)

func patchBody(t *testing.T, req PatchRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func patch(h http.Handler, fp string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPatch, "/v1/schedule/"+fp, bytes.NewReader(body))
	h.ServeHTTP(w, r)
	return w
}

// solveRing posts a schedule request for C_n and returns the decoded
// response, fingerprint included.
func solveRing(t *testing.T, h http.Handler, n int, req Request) response {
	t.Helper()
	req.Graph = ring(n)
	w := post(h, "/v1/schedule", scheduleBody(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("schedule status %d: %s", w.Code, w.Body.String())
	}
	var resp response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fingerprint == "" {
		t.Fatal("schedule result carries no fingerprint")
	}
	return resp
}

// growDelta appends one node with the given budget, wired to nodes 0 and n/2
// of the pre-delta graph.
func growDelta(n, budget int) graph.Delta {
	return graph.Delta{
		AddNodes:   1,
		NewBudgets: []int{budget},
		AddEdges:   [][2]int{{0, n}, {n / 2, n}},
	}
}

func TestPatchEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	base := solveRing(t, h, 8, Request{Algorithm: AlgUniform, Battery: 5, Seed: 7})

	w := patch(h, base.Fingerprint, patchBody(t, PatchRequest{Delta: growDelta(8, 5), At: 1}))
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
	if resp.PriorFingerprint != base.Fingerprint {
		t.Fatalf("prior fingerprint %q != base %q", resp.PriorFingerprint, base.Fingerprint)
	}
	if resp.Fingerprint == base.Fingerprint || resp.Fingerprint == "" {
		t.Fatalf("post-delta fingerprint %q must differ from the base", resp.Fingerprint)
	}
	if resp.Violation {
		t.Fatal("transition reported a violation on a feasible instance")
	}
	if resp.Lifetime <= 0 {
		t.Fatalf("transition lifetime %d, want > 0", resp.Lifetime)
	}
	if resp.Overlap != 2 {
		t.Fatalf("overlap %d, want the default 2", resp.Overlap)
	}
	if len(resp.Mapping) != 8 {
		t.Fatalf("mapping length %d, want 8 pre-delta nodes", len(resp.Mapping))
	}
	// The transition schedule must be feasible on the post-delta instance
	// against the residual budgets (battery 5 minus 1 spent slot for the
	// nodes the old schedule had awake).
	sched, err := core.ReadJSON(bytes.NewReader(resp.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	g2 := graph.NewFromEdges(9, append(ring(8).Edges, [2]int{0, 8}, [2]int{4, 8}))
	usage := sched.Usage(9)
	for v, u := range usage {
		if u > 5 {
			t.Fatalf("node %d scheduled for %d slots, budget is at most 5", v, u)
		}
	}
	if err := sched.Validate(g2, []int{5, 5, 5, 5, 5, 5, 5, 5, 5}, 1); err != nil {
		t.Fatalf("transition schedule infeasible on the post-delta graph: %v", err)
	}

	// The patch invalidated every entry of the superseded graph: the original
	// schedule request is a cache miss again.
	if got := counter(s, "serve.invalidated"); got < 1 {
		t.Fatalf("serve.invalidated = %d, want >= 1", got)
	}
	w2 := post(h, "/v1/schedule", scheduleBody(t, Request{Graph: ring(8), Algorithm: AlgUniform, Battery: 5, Seed: 7}))
	if m := decodeResponse(t, w2); m["cached"] == true {
		t.Fatal("superseded schedule still served from cache after PATCH")
	}
	if got := counter(s, "serve.reconfigs"); got != 1 {
		t.Fatalf("serve.reconfigs = %d, want 1", got)
	}
}

func TestPatchIdempotentRetry(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	base := solveRing(t, h, 6, Request{Algorithm: AlgUniform, Battery: 2, Seed: 1})
	body := patchBody(t, PatchRequest{Delta: growDelta(6, 2), At: 0})

	w := patch(h, base.Fingerprint, body)
	if w.Code != http.StatusOK {
		t.Fatalf("patch status %d: %s", w.Code, w.Body.String())
	}
	// The completed patch invalidated its own base, so a retry cannot find
	// the base entry — it must be answered from the cached patch result.
	w2 := patch(h, base.Fingerprint, body)
	if w2.Code != http.StatusOK {
		t.Fatalf("retry status %d: %s", w2.Code, w2.Body.String())
	}
	m := decodeResponse(t, w2)
	if m["cached"] != true {
		t.Fatalf("retried PATCH not served from cache: %v", m)
	}
	if got := counter(s, "serve.reconfigs"); got != 1 {
		t.Fatalf("serve.reconfigs = %d after a retry, want 1 (no recomputation)", got)
	}
	// The admission identity still holds with the manual hit accounting of
	// the early cache check.
	total := counter(s, "serve.cache_hits") + counter(s, "serve.coalesced") +
		counter(s, "serve.admitted") + counter(s, "serve.rejected_queue_full") +
		counter(s, "serve.rejected_inflight") + counter(s, "serve.rejected_draining")
	if got := counter(s, "serve.requests"); got != total {
		t.Fatalf("serve.requests = %d, outcome sum = %d", got, total)
	}
}

func TestPatchChains(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	base := solveRing(t, h, 8, Request{Algorithm: AlgUniform, Battery: 4, Seed: 2})
	w := patch(h, base.Fingerprint, patchBody(t, PatchRequest{Delta: growDelta(8, 4), At: 0}))
	if w.Code != http.StatusOK {
		t.Fatalf("first patch status %d: %s", w.Code, w.Body.String())
	}
	var first response
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	// A second delta addresses the post-delta fingerprint: the patch result
	// itself is the new patchable base.
	w2 := patch(h, first.Fingerprint, patchBody(t, PatchRequest{
		Delta: graph.Delta{RemoveNodes: []int{8}}, At: 0,
	}))
	if w2.Code != http.StatusOK {
		t.Fatalf("chained patch status %d: %s", w2.Code, w2.Body.String())
	}
	var second response
	if err := json.Unmarshal(w2.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.PriorFingerprint != first.Fingerprint {
		t.Fatalf("chained prior %q, want %q", second.PriorFingerprint, first.Fingerprint)
	}
	if second.Fingerprint != base.Fingerprint {
		t.Fatalf("removing the added node must restore the original fingerprint: %q != %q",
			second.Fingerprint, base.Fingerprint)
	}
}

func TestPatchUnknownFingerprint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	w := patch(h, "deadbeef", patchBody(t, PatchRequest{Delta: growDelta(4, 1)}))
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", w.Code, w.Body.String())
	}
}

func TestPatchAmbiguousFingerprint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	base := solveRing(t, h, 8, Request{Algorithm: AlgUniform, Battery: 3, Seed: 5})
	other := solveRing(t, h, 8, Request{Algorithm: solver.NameGreedy, Battery: 3, Seed: 5})
	if other.Fingerprint != base.Fingerprint {
		t.Fatalf("same graph, different fingerprints: %q vs %q", base.Fingerprint, other.Fingerprint)
	}

	body := patchBody(t, PatchRequest{Delta: growDelta(8, 3), At: 0})
	if w := patch(h, base.Fingerprint, body); w.Code != http.StatusConflict {
		t.Fatalf("ambiguous patch status %d, want 409: %s", w.Code, w.Body.String())
	}
	// Naming the algorithm disambiguates.
	disamb := patchBody(t, PatchRequest{Delta: growDelta(8, 3), At: 0, Algorithm: AlgUniform})
	if w := patch(h, base.Fingerprint, disamb); w.Code != http.StatusOK {
		t.Fatalf("disambiguated patch status %d: %s", w.Code, w.Body.String())
	}
}

func TestPatchValidation(t *testing.T) {
	s := New(Config{Workers: 1, MaxNodes: 8})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	base := solveRing(t, h, 8, Request{Algorithm: AlgUniform, Battery: 3, Seed: 9})

	neg := -1
	cases := []struct {
		name string
		req  PatchRequest
		want int
	}{
		{"negative at", PatchRequest{At: -1}, http.StatusBadRequest},
		{"negative overlap", PatchRequest{Overlap: &neg}, http.StatusBadRequest},
		{"negative tries", PatchRequest{Tries: -1}, http.StatusBadRequest},
		{"negative timeout", PatchRequest{TimeoutMS: -1}, http.StatusBadRequest},
		{"unknown solver", PatchRequest{Solver: "nope"}, http.StatusBadRequest},
		{"at past lifetime", PatchRequest{At: 1000}, http.StatusBadRequest},
		{"bad delta", PatchRequest{Delta: graph.Delta{RemoveNodes: []int{99}}}, http.StatusBadRequest},
		{"grows past cap", PatchRequest{Delta: growDelta(8, 3)}, http.StatusRequestEntityTooLarge},
		{"huge add_nodes", PatchRequest{Delta: graph.Delta{AddNodes: 1 << 24}}, http.StatusRequestEntityTooLarge},
		{"add_nodes at MaxInt", PatchRequest{Delta: graph.Delta{AddNodes: math.MaxInt}}, http.StatusRequestEntityTooLarge},
		{"set_budgets total past MaxInt", PatchRequest{Delta: graph.Delta{
			SetBudgets: []graph.BudgetUpdate{{Node: 0, Budget: math.MaxInt}}}}, http.StatusBadRequest},
		{"new_budgets total past MaxInt", PatchRequest{Delta: graph.Delta{
			RemoveNodes: []int{0}, AddNodes: 1, NewBudgets: []int{math.MaxInt}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		// A rejection must be cheap: the node cap is enforced before the
		// delta is applied, so no request allocates the graph it asks for.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := patch(h, base.Fingerprint, patchBody(t, tc.req))
		runtime.ReadMemStats(&after)
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, w.Code, tc.want, w.Body.String())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes, want under 1 MB", tc.name, alloc)
		}
	}
	// Delta edge pairs must be exactly two integers, in both edge lists.
	for _, field := range []string{"add_edges", "remove_edges"} {
		for _, edges := range []string{`[[0,2],[1]]`, `[[0,2],[1,2,0]]`, `[[0,2],null]`, `[[0,2],[1,null]]`} {
			body := []byte(`{"delta":{"` + field + `":` + edges + `},"at":0}`)
			w := patch(h, base.Fingerprint, body)
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "element 1") {
				t.Errorf("%s %s: status %d, want 400 naming element 1: %s", field, edges, w.Code, w.Body.String())
			}
		}
	}
	// None of the rejections consumed the base: a valid patch still works.
	if w := patch(h, base.Fingerprint, patchBody(t, PatchRequest{
		Delta: graph.Delta{RemoveEdges: [][2]int{{0, 1}}, AddEdges: [][2]int{{0, 2}}},
	})); w.Code != http.StatusOK {
		t.Fatalf("valid patch after rejections: status %d: %s", w.Code, w.Body.String())
	}
}
