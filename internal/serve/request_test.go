package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

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

	experiment, err := json.Marshal(ExperimentRequest{ID: "e1", Quick: true, Trials: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	endpoints := []struct {
		name string
		body []byte
		send func(body []byte) *httptest.ResponseRecorder
	}{
		{"POST /v1/schedule", scheduleBody(t, Request{Graph: ring(9), Algorithm: AlgUniform, Battery: 3}),
			func(b []byte) *httptest.ResponseRecorder { return post(h, "/v1/schedule", b) }},
		{"PATCH /v1/schedule/{fp}", patchBody(t, PatchRequest{Delta: growDelta(8, 3), At: 1}),
			func(b []byte) *httptest.ResponseRecorder { return patch(h, base.Fingerprint, b) }},
		{"POST /v1/experiment", experiment,
			func(b []byte) *httptest.ResponseRecorder { return post(h, "/v1/experiment", b) }},
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
// admission — decode, resolve, key — on arbitrary input. Nothing may panic,
// every error must map to 400 or 413, and an accepted body must describe a
// valid instance whose request, encoded again, resolves to the same key.
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
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
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
