package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/reconfig"
	"repro/internal/shard"
	"repro/internal/solver"
)

// scheduleCtx is the solved instance retained next to a cached schedule
// Result: everything the PATCH endpoint needs to plan a transition without
// re-parsing or re-solving. It is immutable once attached — a patch builds a
// fresh ctx for its own result rather than mutating the base's, which is what
// makes concurrent PATCHes against the same fingerprint well-defined (both
// apply to the same base; last cache write wins).
type scheduleCtx struct {
	// inst is the typed solve instance the schedule was computed for (graph,
	// budgets, tolerance, structure metadata).
	inst  *instance.Instance
	sched *core.Schedule
	// part, when non-nil, is the partition the schedule was stitched from;
	// PATCH rebases it through the delta mapping and re-solves only the
	// shards the delta touched, under shards: the base's shard.Options with
	// no cancel, deadline or source, whose replay is what keeps untouched
	// shards hitting the compositional cache.
	part   *shard.Partition
	shards shard.Options
}

// PatchRequest is the body of PATCH /v1/schedule/{fingerprint}: a live graph
// delta to apply against a cached schedule, and how to plan the transition.
type PatchRequest struct {
	// Delta is the typed graph/budget change (graph.Delta wire format).
	Delta graph.Delta `json:"delta"`
	// At is the slot of the running schedule the transition takes over from;
	// slots [0, At) are treated as already spent when computing residuals.
	At int `json:"at"`
	// Overlap is the requested overlap window in slots. Omitted means the
	// server's DefaultOverlap; an explicit 0 requests a pure swap.
	Overlap *int `json:"overlap,omitempty"`
	// Algorithm disambiguates when several cached schedules share the
	// fingerprint: only entries solved by this algorithm are considered.
	Algorithm string `json:"algorithm,omitempty"`
	// Solver names the registry algorithm for the incoming schedule; empty
	// means greedy recruitment (the only solver that understands per-node
	// residual budgets natively). A sharded base rejects Solver, Seed and
	// Tries: its shards re-solve with the base request's options.
	Solver    string `json:"solver,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Tries     int    `json:"tries,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	Async     bool   `json:"async,omitempty"`
}

func (r *PatchRequest) seedOrDefault() uint64 {
	if r.Seed == 0 {
		return 1
	}
	return r.Seed
}

func (r *PatchRequest) triesOrDefault() int {
	if r.Tries <= 0 {
		return 30
	}
	return r.Tries
}

// key returns the canonical cache/coalescing key of the patch: the prior
// fingerprint, the resolved overlap, the full delta, and the solver
// parameters. Delivery options are excluded, mirroring Request.key, so a
// retried PATCH coalesces with (or hits the cached result of) the original.
func (r *PatchRequest) key(fp string, overlap int) string {
	h := graph.NewHasher().
		String("kind", "reconfig").
		String("fp", fp).
		String("alg", r.Algorithm).
		Int("at", r.At).
		Int("overlap", overlap).
		String("solver", r.Solver).
		Uint64("seed", r.seedOrDefault()).
		Int("tries", r.triesOrDefault())
	return r.Delta.HashInto(h).Sum()
}

// handlePatch serves PATCH /v1/schedule/{fp}: it resolves the cached base
// schedule by graph fingerprint, plans a verified zero-downtime transition
// for the delta (internal/reconfig), invalidates every cache entry of the
// superseded graph, and caches the transition under the patch key — indexed
// by the post-delta fingerprint, so further deltas can chain onto it.
//
// The patch key is checked against the cache before the fingerprint lookup:
// a completed PATCH invalidates its own base, so an idempotent retry must be
// answered from the patch result itself, not by re-resolving a base that is
// no longer cached.
func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	var req PatchRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.At < 0 {
		writeError(w, http.StatusBadRequest, "at = %d must be >= 0", req.At)
		return
	}
	if req.Overlap != nil && *req.Overlap < 0 {
		writeError(w, http.StatusBadRequest, "overlap = %d must be >= 0", *req.Overlap)
		return
	}
	if req.Tries < 0 {
		writeError(w, http.StatusBadRequest, "tries = %d must be >= 0", req.Tries)
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "timeout_ms = %d must be >= 0", req.TimeoutMS)
		return
	}
	if req.Solver != "" {
		if _, err := solver.Resolve(req.Solver); err != nil {
			writeError(w, http.StatusBadRequest, "solver: %v", err)
			return
		}
	}
	overlap := s.cfg.DefaultOverlap
	if req.Overlap != nil {
		overlap = *req.Overlap
	}
	key := req.key(fp, overlap)

	s.mu.Lock()
	if cached, ok := s.cache.get(key); ok {
		s.met.requests.Inc()
		s.met.cacheHits.Inc()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, response{Result: cached, Cached: true})
		return
	}
	candidates := s.cache.byFingerprint(fp)
	s.mu.Unlock()

	base, errStatus, errMsg := selectBase(candidates, fp, req.Algorithm)
	if base == nil {
		writeError(w, errStatus, "%s", errMsg)
		return
	}
	ctx := base.ctx
	// A sharded base re-solves through its stored shard options, and the
	// planner then skips its solver ladder: these fields would change
	// nothing but the patch key.
	if ctx.part != nil && (req.Solver != "" || req.Seed != 0 || req.Tries != 0) {
		writeError(w, http.StatusBadRequest,
			"solver, seed and tries do not apply to a sharded schedule: it re-solves its shards with the base request's algorithm, seed and tries")
		return
	}
	n := ctx.inst.N()
	if req.At > ctx.sched.Lifetime() {
		writeError(w, http.StatusBadRequest,
			"at = %d is past the schedule's lifetime %d", req.At, ctx.sched.Lifetime())
		return
	}
	residual := make([]int, n)
	for v, used := range ctx.sched.UsagePrefix(n, req.At) {
		residual[v] = ctx.inst.Budgets[v] - used
	}
	// Enforce the node cap before Apply allocates the post-delta graph, so a
	// huge add_nodes costs nothing. The count is exact for every delta Apply
	// accepts (it rejects duplicate or out-of-range removals), and comparing
	// against the headroom cannot overflow.
	survivors := n - len(req.Delta.RemoveNodes)
	if req.Delta.AddNodes > s.cfg.MaxNodes-survivors {
		writeError(w, http.StatusRequestEntityTooLarge,
			"delta adds %d nodes to %d survivors, exceeding the service cap of %d",
			req.Delta.AddNodes, survivors, s.cfg.MaxNodes)
		return
	}
	// Apply the delta once, up front, so malformed requests are 400s at the
	// door, not job failures. The job plans on this result, and a sharded
	// base rebases its partition on it; nothing writes it, so both share it.
	g2, budgets2, mapping, err := req.Delta.Apply(ctx.inst.Graph, residual)
	if err == nil {
		// new_budgets and set_budgets can push the total past what a
		// lifetime can hold.
		err = checkBudgetTotal(budgets2)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	run := func(cancel func() bool) (*Result, error) {
		// Sharded base: re-solve through the partition instead of the
		// reconfig solver ladder. The delta's mapping rebases the partition;
		// untouched shards keep their local instances, hence their
		// content-addressed keys, hence hit the cache — a single-tile delta
		// re-solves exactly one shard.
		var incoming *core.Schedule
		var part2 *shard.Partition
		if ctx.part != nil {
			part2 = ctx.part.Rebase(g2, mapping)
			opt := ctx.shards
			opt.Solver.Cancel = cancel
			var err error
			// The post-delta parent instance keeps the tolerance.
			incoming, err = s.solveShards(instance.New(g2, budgets2).WithK(ctx.inst.Tolerance()), part2, opt)
			if err != nil {
				return nil, err
			}
		}
		// The pre-delta instance at the cutover: residual budgets under the
		// same graph, sharing the already-computed structure metadata.
		p, err := reconfig.ComputeApplied(ctx.inst.WithBudgets(residual), g2, budgets2, mapping, reconfig.Request{
			Old:      ctx.sched,
			At:       req.At,
			Overlap:  overlap,
			Solver:   req.Solver,
			Seed:     req.seedOrDefault(),
			Tries:    req.triesOrDefault(),
			Cancel:   cancel,
			Hooks:    s.hooks,
			Incoming: incoming,
		})
		if err != nil {
			return nil, err
		}
		s.met.reconfigs.Inc()
		if p.Degraded {
			s.met.reconfigDegraded.Inc()
		}
		if p.Violation {
			s.met.reconfigViolations.Inc()
		}
		s.met.overlapEnergy.Add(uint64(p.OverlapEnergy))
		// The base graph no longer exists: every schedule cached for it —
		// including the base itself — is stale. The patch result survives
		// because completion caches it after this runs, under the new
		// fingerprint.
		dropped := s.invalidateFingerprint(fp)
		s.met.invalidated.Add(uint64(dropped))
		algorithm := req.Solver
		if ctx.part != nil {
			// A sharded base stays sharded under its own algorithm: the next
			// PATCH rebases part2 in turn and replays the same options.
			algorithm = base.Algorithm
		} else if algorithm == "" {
			algorithm = solver.NameGreedy
		}
		res, err := newResult(key, "reconfig", algorithm, &scheduleCtx{
			inst:   instance.New(p.Graph, p.Budgets).WithK(ctx.inst.Tolerance()),
			sched:  p.Schedule(),
			part:   part2,
			shards: ctx.shards,
		})
		if err != nil {
			return nil, err
		}
		res.PriorFingerprint = fp
		res.Overlap, res.OverlapEnergy = p.Overlap, p.OverlapEnergy
		res.Degraded, res.Violation = p.Degraded, p.Violation
		res.Invalidated, res.Mapping = dropped, p.Mapping
		return res, nil
	}
	s.dispatch(w, r, key, "reconfig",
		timeoutFromMS(req.TimeoutMS, s.cfg.DefaultTimeout), req.Async, run)
}

// selectBase picks the cached schedule a PATCH applies to: exactly one
// patchable entry under the fingerprint, optionally filtered by algorithm.
// Zero candidates is 404 (nothing cached for that graph — or it was already
// superseded); several is 409, with the algorithms listed so the client can
// disambiguate.
func selectBase(candidates []*Result, fp, algorithm string) (*Result, int, string) {
	var matches []*Result
	for _, res := range candidates {
		if algorithm != "" && res.Algorithm != algorithm {
			continue
		}
		matches = append(matches, res)
	}
	switch len(matches) {
	case 0:
		return nil, http.StatusNotFound,
			fmt.Sprintf("no cached schedule for fingerprint %s (it may have been evicted or superseded by an earlier delta)", fp)
	case 1:
		return matches[0], 0, ""
	}
	algs := make([]string, 0, len(matches))
	seen := make(map[string]bool, len(matches))
	for _, res := range matches {
		if !seen[res.Algorithm] {
			seen[res.Algorithm] = true
			algs = append(algs, res.Algorithm)
		}
	}
	sort.Strings(algs)
	return nil, http.StatusConflict,
		fmt.Sprintf("fingerprint %s has %d cached schedules (algorithms: %s); disambiguate with \"algorithm\" or distinct request parameters",
			fp, len(matches), strings.Join(algs, ", "))
}
