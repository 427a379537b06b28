package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/reconfig"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/solver"
)

// Stage span names, in request-path order. Every replayed request is a
// root span named rootSpan; stages are its children, except checkSpan, the
// benchmark's own correctness check, which is a root of its own so that it
// never counts as server work.
const (
	rootSpan  = "serve.request"
	checkSpan = "core.validate"
)

var stageNames = []string{
	"serve.decode",
	"graph.build",
	"instance.classify",
	"solver.validate",
	"graph.key_hash",
	"solver.solve",
	"shard.partition",
	"shard.solve",
	"shard.stitch",
	"graph.delta_apply",
	"reconfig.compute",
	"graph.fingerprint",
	"core.encode",
	checkSpan,
}

// span is one timed stage of the traced replay. Spans of one request share
// Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.Dur = int64(time.Since(t.t0)) - s.Start
}

// stage times fn as a child span of parent.
func (t *tracer) stage(req, parent int, name string, fn func() error) error {
	id := t.begin(req, parent, name)
	err := fn()
	t.end(id)
	return err
}

// envelope mirrors the server's response envelope.
type envelope struct {
	*serve.Result
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
}

// patchBase is what a PATCH needs of the schedule it applies to.
type patchBase struct {
	inst  *instance.Instance
	sched *core.Schedule
}

// replayer runs requests one at a time through the public functions the
// server's handlers call, timing each stage. Its maps stand in for the LRU:
// a repeated key is answered without solving, and a PATCH drops every
// result of the graph it supersedes.
type replayer struct {
	tr      tracer
	results map[string]*serve.Result
	byFP    map[string][]string // fingerprint → result keys
	bases   map[string]*patchBase
	shards  *shardCache
	out     bytes.Buffer
}

func newReplayer() *replayer {
	return &replayer{
		tr:      tracer{t0: time.Now()},
		results: make(map[string]*serve.Result),
		byFP:    make(map[string][]string),
		bases:   make(map[string]*patchBase),
		shards:  &shardCache{m: make(map[string]*core.Schedule)},
	}
}

// shardCache is the replay's shard.Cache; per-shard solves call it from
// pool workers.
type shardCache struct {
	mu sync.Mutex
	m  map[string]*core.Schedule
}

func (c *shardCache) Get(key string) (*core.Schedule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	return s, ok
}

func (c *shardCache) Put(key string, s *core.Schedule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = s
}

// The server applies these defaults to zero request fields.
func reqSeed(r *serve.Request) uint64 {
	if r.Seed == 0 {
		return 1
	}
	return r.Seed
}

func reqTries(r *serve.Request) int {
	if r.Tries <= 0 {
		return 30
	}
	return r.Tries
}

func reqKConst(r *serve.Request) float64 {
	if r.KConst <= 0 {
		return 3
	}
	return r.KConst
}

func reqSpec(r *serve.Request) solver.Spec {
	s := solver.Spec{Name: r.Algorithm, KConst: reqKConst(r)}
	if r.Refine != "" {
		s.Name, s.Base = r.Refine, r.Algorithm
	}
	return s
}

// scheduleKey mirrors the server's canonical schedule request key.
func scheduleKey(r *serve.Request, inst *instance.Instance) string {
	return graph.NewHasher().
		String("kind", "schedule").
		Graph("graph", inst.Graph).
		Ints("budgets", inst.Budgets).
		String("alg", r.Algorithm).
		String("refine", r.Refine).
		Int("k", inst.Tolerance()).
		Float("kconst", reqKConst(r)).
		Uint64("seed", reqSeed(r)).
		Int("tries", reqTries(r)).
		Int("budget", r.Budget).
		Int("time_budget_ms", r.TimeBudgetMS).
		Int("shards", r.Shards).
		String("partitioner", r.Partitioner).
		Sum()
}

func patchSeedTries(r *serve.PatchRequest) (uint64, int) {
	seed, tries := r.Seed, r.Tries
	if seed == 0 {
		seed = 1
	}
	if tries <= 0 {
		tries = 30
	}
	return seed, tries
}

// patchKey mirrors the server's canonical PATCH key.
func patchKey(r *serve.PatchRequest, fp string, overlap int) string {
	seed, tries := patchSeedTries(r)
	h := graph.NewHasher().
		String("kind", "reconfig").
		String("fp", fp).
		String("alg", r.Algorithm).
		Int("at", r.At).
		Int("overlap", overlap).
		String("solver", r.Solver).
		Uint64("seed", seed).
		Int("tries", tries)
	return r.Delta.HashInto(h).Sum()
}

// jobCancel is the sticky deadline check the server hands every job it
// runs (the default 30 s timeout); solvers poll it before every retry and
// refinement move, so the replay pays for it too.
func jobCancel() func() bool {
	deadline := time.Now().Add(30 * time.Second)
	return func() bool { return !time.Now().Before(deadline) }
}

func decodeStrict(rq *request, into any) error {
	dec := json.NewDecoder(rq.body())
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// store caches res under key, indexed by its fingerprint.
func (rp *replayer) store(key string, res *serve.Result, base *patchBase) {
	rp.results[key] = res
	rp.byFP[res.Fingerprint] = append(rp.byFP[res.Fingerprint], key)
	rp.bases[res.Fingerprint] = base
}

func (rp *replayer) invalidate(fp string) {
	for _, key := range rp.byFP[fp] {
		delete(rp.results, key)
	}
	delete(rp.byFP, fp)
	delete(rp.bases, fp)
}

// encode writes the response envelope into rp.out, as the server's
// writeJSON does.
func (rp *replayer) encode(res *serve.Result, cached bool) error {
	rp.out.Reset()
	enc := json.NewEncoder(&rp.out)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope{Result: res, Cached: cached})
}

func scheduleJSON(s *core.Schedule) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return bytes.TrimSpace(buf.Bytes()), nil
}

// serve replays one request as request id and returns the response body,
// valid until the next call.
func (rp *replayer) serve(id int, rq *request) ([]byte, error) {
	root := rp.tr.begin(id, 0, rootSpan)
	var err error
	if rq.method == "PATCH" {
		err = rp.patch(id, root, rq)
	} else {
		err = rp.post(id, root, rq)
	}
	rp.tr.end(root)
	return rp.out.Bytes(), err
}

func (rp *replayer) post(id, root int, rq *request) error {
	t := &rp.tr
	var req serve.Request
	if err := t.stage(id, root, "serve.decode", func() error { return decodeStrict(rq, &req) }); err != nil {
		return err
	}
	var g *graph.Graph
	t.stage(id, root, "graph.build", func() error {
		g = graph.NewFromEdges(req.Graph.N, req.Graph.Edges)
		return nil
	})
	budgets := make([]int, g.N())
	for v := range budgets {
		budgets[v] = req.Battery
		if len(req.Batteries) > 0 {
			budgets[v] = req.Batteries[v]
		}
	}
	inst := instance.New(g, budgets).WithK(max(req.K, 1))
	spec := reqSpec(&req)
	if req.Algorithm == serve.AlgAuto {
		t.stage(id, root, "instance.classify", func() error { inst.Meta(); return nil })
	}
	err := t.stage(id, root, "solver.validate", func() error {
		sv, err := solver.Resolve(spec.Name)
		if err != nil {
			return err
		}
		return sv.Validate(inst, spec)
	})
	if err != nil {
		return err
	}
	var key string
	t.stage(id, root, "graph.key_hash", func() error { key = scheduleKey(&req, inst); return nil })
	if res := rp.results[key]; res != nil {
		return t.stage(id, root, "core.encode", func() error { return rp.encode(res, true) })
	}

	start := time.Now()
	sched, err := rp.solve(id, root, &req, inst)
	if err != nil {
		return err
	}
	solveMS := msSince(start)
	var fp [32]byte
	t.stage(id, root, "graph.fingerprint", func() error { fp = g.Fingerprint(); return nil })
	return t.stage(id, root, "core.encode", func() error {
		raw, err := scheduleJSON(sched)
		if err != nil {
			return err
		}
		res := &serve.Result{
			Key: key, Kind: "schedule", Algorithm: req.Algorithm,
			Lifetime: sched.Lifetime(), Phases: len(sched.Phases), Schedule: raw,
			SolveMS: solveMS, Fingerprint: hex.EncodeToString(fp[:]),
		}
		rp.store(key, res, &patchBase{inst: inst, sched: sched})
		return rp.encode(res, false)
	})
}

// solve runs the whole-graph solve, or partition → per-shard solves →
// stitch when the request asks for shards, as the server's job does.
func (rp *replayer) solve(id, root int, req *serve.Request, inst *instance.Instance) (*core.Schedule, error) {
	t := &rp.tr
	var sched *core.Schedule
	if req.Shards <= 1 {
		err := t.stage(id, root, "solver.solve", func() error {
			var err error
			sched, err = serve.Solve(inst, req, 1, serve.SolveDefaults{}, obs.Hooks{}, jobCancel())
			return err
		})
		return sched, err
	}
	var p *shard.Partition
	err := t.stage(id, root, "shard.partition", func() error {
		var err error
		p, err = shard.ByName(req.Partitioner, inst.Graph, nil, req.Shards, reqSeed(req))
		return err
	})
	if err != nil {
		return nil, err
	}
	var solved []*shard.ShardResult
	err = t.stage(id, root, "shard.solve", func() error {
		var err error
		solved, err = shard.SolveShards(inst, p, shard.Options{
			Spec:          reqSpec(req),
			Solver:        solver.Options{Tries: reqTries(req), Budget: req.Budget, Cancel: jobCancel()},
			Seed:          reqSeed(req),
			TransientPool: true,
			Cache:         rp.shards,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.stage(id, root, "shard.stitch", func() error {
		st, err := shard.Stitch(inst, p, solved, obs.Hooks{})
		if err == nil {
			sched = st.Schedule
		}
		return err
	})
	return sched, err
}

func (rp *replayer) patch(id, root int, rq *request) error {
	t := &rp.tr
	fp := strings.TrimPrefix(rq.path, "/v1/schedule/")
	var req serve.PatchRequest
	if err := t.stage(id, root, "serve.decode", func() error { return decodeStrict(rq, &req) }); err != nil {
		return err
	}
	overlap := reconfig.DefaultOverlap
	if req.Overlap != nil {
		overlap = *req.Overlap
	}
	var key string
	t.stage(id, root, "graph.key_hash", func() error { key = patchKey(&req, fp, overlap); return nil })
	if res := rp.results[key]; res != nil {
		return t.stage(id, root, "core.encode", func() error { return rp.encode(res, true) })
	}
	base := rp.bases[fp]
	if base == nil {
		return fmt.Errorf("PATCH %s: no schedule to patch", rq.path)
	}
	n := base.inst.N()
	residual := base.sched.UsagePrefix(n, req.At)
	for v := range residual {
		residual[v] = base.inst.Budgets[v] - residual[v]
	}
	err := t.stage(id, root, "graph.delta_apply", func() error {
		_, _, _, err := req.Delta.Apply(base.inst.Graph, residual)
		return err
	})
	if err != nil {
		return err
	}
	seed, tries := patchSeedTries(&req)
	start := time.Now()
	var p *reconfig.Plan
	err = t.stage(id, root, "reconfig.compute", func() error {
		var err error
		p, err = reconfig.Compute(base.inst.WithBudgets(residual), reconfig.Request{
			Old: base.sched, At: req.At, Delta: req.Delta, Overlap: overlap,
			Solver: req.Solver, Seed: seed, Tries: tries, Cancel: jobCancel(),
		})
		return err
	})
	if err != nil {
		return err
	}
	solveMS := msSince(start)
	rp.invalidate(fp)
	var newFP [32]byte
	t.stage(id, root, "graph.fingerprint", func() error { newFP = p.Graph.Fingerprint(); return nil })
	return t.stage(id, root, "core.encode", func() error {
		sched := p.Schedule()
		raw, err := scheduleJSON(sched)
		if err != nil {
			return err
		}
		res := &serve.Result{
			Key: key, Kind: "reconfig", Algorithm: solver.NameGreedy,
			Lifetime: sched.Lifetime(), Phases: len(sched.Phases), Schedule: raw,
			SolveMS: solveMS, Fingerprint: hex.EncodeToString(newFP[:]), PriorFingerprint: fp,
			Overlap: p.Overlap, OverlapEnergy: p.OverlapEnergy, Degraded: p.Degraded,
			Violation: p.Violation, Mapping: p.Mapping,
		}
		inst := instance.New(p.Graph, p.Budgets).WithK(base.inst.Tolerance())
		rp.store(key, res, &patchBase{inst: inst, sched: sched})
		return rp.encode(res, false)
	})
}

// sequence returns a round's requests in the order a one-at-a-time replay
// sends them: priming first, then the clients' ops interleaved, each with
// the client whose chain it belongs to.
func sequence(in *inputs) (ops []*request, owner []int) {
	for i, rq := range in.prime {
		ops, owner = append(ops, rq), append(owner, i%clients)
	}
	longest := max(len(in.clients[0]), len(in.clients[1]))
	for j := range longest {
		for c, seq := range in.clients {
			if j < len(seq) {
				ops, owner = append(ops, seq[j]), append(owner, c)
			}
		}
	}
	return ops, owner
}

// traceStats are the per-layer numbers of one traced replay and the
// matching one-at-a-time HTTP pass.
type traceStats struct {
	stageMS    map[string]float64 // p50 per stage over the requests that ran it
	stageShare map[string]float64 // stage total ÷ replayed request total
	replayMS   float64            // p50 of the replayed request spans
	httpMS     float64            // p50 of the same requests over HTTP
	attempted  int
	failed     int
	errs       []error
}

// runTrace replays in one request at a time, then sends the same sequence
// one at a time to a fresh server. Priming requests run in both but are
// left out of the statistics.
func runTrace(in *inputs, spansPath string, hdr *header) (*traceStats, error) {
	ops, owner := sequence(in)
	primed := len(in.prime)
	ts := &traceStats{stageMS: make(map[string]float64), stageShare: make(map[string]float64)}
	fail := func(err error) {
		ts.failed++
		if len(ts.errs) < 5 {
			ts.errs = append(ts.errs, err)
		}
	}

	rp := newReplayer()
	vf := newVerifier()
	for i, rq := range ops {
		id := i + 1
		ts.attempted++
		body, err := rp.serve(id, rq)
		if err == nil {
			err = rp.tr.stage(id, 0, checkSpan, func() error {
				return vf.check(owner[i], rq, 200, body)
			})
		}
		if err != nil {
			fail(err)
		}
	}
	durs := make(map[string][]float64)
	for _, s := range rp.tr.spans {
		if s.Req > primed {
			durs[s.Name] = append(durs[s.Name], float64(s.Dur)/1e6)
		}
	}
	total := 0.0
	for _, d := range durs[rootSpan] {
		total += d
	}
	for _, name := range stageNames {
		sum := 0.0
		for _, d := range durs[name] {
			sum += d
		}
		ts.stageMS[name] = median(durs[name])
		ts.stageShare[name] = ratio(sum, total)
	}
	ts.replayMS = median(durs[rootSpan])

	svc, err := startService()
	if err != nil {
		return nil, err
	}
	vf = newVerifier()
	var httpMS []float64
	for i, rq := range ops {
		s := svc.send(rq)
		ts.attempted++
		err := s.err
		if err == nil {
			err = vf.check(owner[i], rq, s.status, s.body)
		}
		if err != nil {
			fail(err)
		}
		if i >= primed {
			httpMS = append(httpMS, s.ms)
		}
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}
	ts.httpMS = median(httpMS)

	if spansPath != "" {
		if err := writeSpans(spansPath, hdr, primed, rp.tr.spans); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// writeSpans writes the run header and every span, one span per line.
func writeSpans(path string, hdr *header, primed int, spans []span) error {
	h, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"header\": %s,\n\"primed\": %d,\n\"spans\": [", h, primed)
	for i, s := range spans {
		if i > 0 {
			buf.WriteByte(',')
		}
		b, _ := json.Marshal(s) // a span is plain numbers and strings
		buf.WriteByte('\n')
		buf.Write(b)
	}
	buf.WriteString("\n]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
