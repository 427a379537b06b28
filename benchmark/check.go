package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// reply is the part of a /v1/schedule response the check reads.
type reply struct {
	Lifetime    int             `json:"lifetime"`
	Schedule    json.RawMessage `json:"schedule"`
	Fingerprint string          `json:"fingerprint"`
	Violation   bool            `json:"violation"`
}

// outcome is the verdict on one schedule body for one problem.
type outcome struct {
	sched *core.Schedule
	ratio float64 // lifetime ÷ Lemma bound
	err   error
}

// chainState is what a client's next PATCH applies to: the instance and
// schedule of its previous response.
type chainState struct {
	g       *graph.Graph
	budgets []int
	k       int
	sched   *core.Schedule
}

// verifier checks responses without trusting the server: every schedule
// must parse, be feasible on the instance the benchmark generated (or, for
// a PATCH, derived by applying the delta itself), and stay within the
// paper's upper bound. POST verdicts are cached per (problem, SHA-256 of the
// schedule), so each distinct body is validated once. Responses of one
// client must be checked in the order that client sent them.
type verifier struct {
	seen  map[postKey]*outcome
	chain [clients]chainState
	// rated marks the distinct instances answered: a POST problem counts
	// once however often it repeats, and every PATCH counts. Their lifetime
	// ratios are summed in check order, so the mean is reproducible.
	rated      map[any]bool
	ratioSum   float64
	ratioCount int
}

type postKey struct {
	prob *problem
	sum  [sha256.Size]byte
}

func newVerifier() *verifier {
	return &verifier{seen: make(map[postKey]*outcome), rated: make(map[any]bool)}
}

func (vf *verifier) rate(instance any, r float64) {
	if !vf.rated[instance] {
		vf.rated[instance] = true
		vf.ratioSum += r
		vf.ratioCount++
	}
}

// meanQuality is the mean lifetime ratio over the distinct instances
// answered so far.
func (vf *verifier) meanQuality() float64 {
	return ratio(vf.ratioSum, float64(vf.ratioCount))
}

// check verifies client c's response to rq.
func (vf *verifier) check(c int, rq *request, status int, body []byte) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("%s %s: status %d: %.200s", rq.method, rq.path, status, body)
	}
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", rq.method, rq.path, err)
	}
	if rq.method == "PATCH" {
		return vf.checkPatch(c, rq, &rp)
	}
	key := postKey{rq.prob, sha256.Sum256(rp.Schedule)}
	o := vf.seen[key]
	if o == nil {
		o = verifySchedule(rq.prob.g, rq.prob.budgets, rq.prob.k, rq.prob.bound, &rp)
		if o.err == nil && rp.Fingerprint != rq.prob.fp {
			o.err = fmt.Errorf("fingerprint %s, want %s", rp.Fingerprint, rq.prob.fp)
		}
		vf.seen[key] = o
	}
	if o.err != nil {
		return fmt.Errorf("POST %s: %w", rq.path, o.err)
	}
	p := rq.prob
	vf.chain[c] = chainState{g: p.g, budgets: p.budgets, k: p.k, sched: o.sched}
	vf.rate(p, o.ratio)
	return nil
}

// checkPatch derives the post-delta instance from the client's previous
// response, the way the server must: residual budgets after slot rq.at,
// then the delta.
func (vf *verifier) checkPatch(c int, rq *request, rp *reply) error {
	if rp.Violation {
		return fmt.Errorf("PATCH %s: violation", rq.path)
	}
	prev := vf.chain[c]
	vf.chain[c] = chainState{}
	if prev.sched == nil {
		return fmt.Errorf("PATCH %s: no verified schedule to patch", rq.path)
	}
	residual := prev.sched.UsagePrefix(prev.g.N(), rq.at)
	for v := range residual {
		residual[v] = prev.budgets[v] - residual[v]
	}
	g2, b2, _, err := rq.delta.Apply(prev.g, residual)
	if err != nil {
		return fmt.Errorf("PATCH %s: applying delta: %w", rq.path, err)
	}
	if fp := hexFingerprint(g2); fp != rq.fp || rp.Fingerprint != fp {
		return fmt.Errorf("PATCH %s: fingerprint %s, derived %s, generated %s", rq.path, rp.Fingerprint, fp, rq.fp)
	}
	o := verifySchedule(g2, b2, prev.k, lemmaBound(g2, b2, prev.k), rp)
	if o.err != nil {
		return fmt.Errorf("PATCH %s: %w", rq.path, o.err)
	}
	vf.chain[c] = chainState{g: g2, budgets: b2, k: prev.k, sched: o.sched}
	vf.rate(rq, o.ratio)
	return nil
}

func verifySchedule(g *graph.Graph, budgets []int, k, bound int, rp *reply) *outcome {
	s, err := core.ReadJSON(bytes.NewReader(rp.Schedule))
	if err != nil {
		return &outcome{err: fmt.Errorf("reading schedule: %w", err)}
	}
	if err := s.Validate(g, budgets, k); err != nil {
		return &outcome{err: fmt.Errorf("invalid schedule: %w", err)}
	}
	l := s.Lifetime()
	switch {
	case l != rp.Lifetime:
		return &outcome{err: fmt.Errorf("lifetime field %d, schedule lasts %d", rp.Lifetime, l)}
	case l > bound:
		return &outcome{err: fmt.Errorf("lifetime %d exceeds the Lemma bound %d", l, bound)}
	}
	return &outcome{sched: s, ratio: ratio(float64(l), float64(bound))}
}
