package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/solver"
)

// SolveDefaults carries the server-side budget defaults into Solve: the
// refinement move budget and wall-clock solve budget a request gets when it
// does not carry its own. The zero value defers to the solver's defaults
// (budget) and no deadline (time budget).
type SolveDefaults struct {
	Budget     int
	TimeBudget time.Duration
}

// Solve computes a feasible schedule for the request through the solver
// registry: the request's spec resolves to a registered solver — the
// algorithm itself, or a refiner stacked on it when the request asks for
// refinement — and the generic driver runs the retry/truncate/keep-best/
// early-stop loop under the options Request.options builds. cancel is the
// sticky deadline check of solver.Options.Cancel, polled before every retry,
// and a fired cancel surfaces solver.ErrCanceled; a time budget (request
// time_budget_ms, or the server default) instead becomes a solver deadline,
// which truncates refinement to the best schedule found so far rather than
// failing. width > 1 races that many independently seeded attempts
// concurrently with a deterministic winner; <= 1 is the sequential driver.
// The driver validates the final schedule before returning, so the service
// never hands out an infeasible one.
//
// Race attempts run on goroutines of their own (solver.Solve's par.ForEach),
// never on the service's worker pool: Solve itself executes on a pool
// worker, and re-submitting the attempts to the same pool would deadlock
// once every worker blocks waiting for attempts that sit queued behind the
// blocked workers.
func Solve(inst *instance.Instance, req *Request, width int,
	defs SolveDefaults, hooks obs.Hooks, cancel func() bool) (*core.Schedule, error) {
	return solver.Solve(inst, req.spec(), req.options(width, defs, hooks, cancel))
}

// shardCache adapts the server's LRU to shard.Cache. Entries are Kind
// "shard" Results keyed by the content-addressed shard key and carry no
// graph fingerprint, so PATCH's fingerprint invalidation never touches
// them — deliberately: a delta gives the shards it touched new keys (their
// local instances changed), while untouched shards keep their keys and hit.
// Invalidation is thereby exactly "entries whose shard changed", with no
// bookkeeping; stale keys simply age out of the LRU.
type shardCache struct{ s *Server }

func (c shardCache) Get(key string) (*core.Schedule, bool) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	res, ok := c.s.cache.get(key)
	if !ok || res.shardSched == nil {
		return nil, false
	}
	return res.shardSched, true
}

func (c shardCache) Put(key string, sched *core.Schedule) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.s.cache.add(key, &Result{Key: key, Kind: "shard", shardSched: sched})
}

// solveShards runs a sharded job's per-shard solves and stitch, for POST
// and PATCH alike, and folds the outcome into the serve.shard_* metrics.
// The shards solve on goroutines of their own (opt.TransientPool; see Solve
// on why re-entering the service pool is off the table).
func (s *Server) solveShards(inst *instance.Instance, p *shard.Partition, opt shard.Options) (*core.Schedule, error) {
	solved, err := shard.SolveShards(inst, p, opt)
	if err != nil {
		return nil, err
	}
	for _, sr := range solved {
		if sr.Cached {
			s.met.shardCacheHits.Inc()
		} else {
			s.met.shardSolves.Inc()
		}
	}
	st, err := shard.Stitch(inst, p, solved, opt.Solver.Hooks)
	if err != nil {
		return nil, err
	}
	s.met.shardRepairs.Add(uint64(st.Repairs))
	s.met.shardReplans.Add(uint64(st.Replans))
	return st.Schedule, nil
}

// scheduleJSON renders a schedule into the cmd/ltsched interchange format.
func scheduleJSON(s *core.Schedule) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("serve: encoding schedule: %w", err)
	}
	return json.RawMessage(bytes.TrimSpace(buf.Bytes())), nil
}

// newResult renders the schedule of ctx into the immutable cached Result of
// a job of the given kind ("schedule" or "reconfig"), stamping the
// fingerprint of ctx's graph and retaining ctx, so the result is
// addressable — and patchable — by PATCH /v1/schedule/{fp}.
func newResult(key, kind, algorithm string, ctx *scheduleCtx) (*Result, error) {
	raw, err := scheduleJSON(ctx.sched)
	if err != nil {
		return nil, err
	}
	fp := ctx.inst.Graph.Fingerprint()
	return &Result{
		Key:         key,
		Kind:        kind,
		Algorithm:   algorithm,
		Lifetime:    ctx.sched.Lifetime(),
		Phases:      len(ctx.sched.Phases),
		Schedule:    raw,
		Fingerprint: hex.EncodeToString(fp[:]),
		ctx:         ctx,
	}, nil
}
