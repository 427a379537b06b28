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
	"repro/internal/rng"
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
// early-stop loop with the service's cancellation contract threaded through.
// cancel is the sticky deadline check of solver.Options.Cancel, polled
// before every retry, and a fired cancel surfaces solver.ErrCanceled;
// a time budget (request time_budget_ms, or the server default) instead
// becomes a solver deadline, which truncates refinement to the best schedule
// found so far rather than failing. Options.RaceWidth > 1 races that many
// independently seeded attempts concurrently with a deterministic winner;
// <= 1 is the sequential driver. The driver validates the final schedule
// before returning, so the service never hands out an infeasible one.
//
// Race attempts run on goroutines of their own (solver.Solve's par.ForEach),
// never on the service's worker pool: Solve itself executes on a pool
// worker, and re-submitting the attempts to the same pool would deadlock
// once every worker blocks waiting for attempts that sit queued behind the
// blocked workers.
func Solve(inst *instance.Instance, req *Request, width int,
	defs SolveDefaults, hooks obs.Hooks, cancel func() bool) (*core.Schedule, error) {
	opt := solver.Options{
		Tries:     req.tries(),
		Budget:    req.budget(defs.Budget),
		Cancel:    cancel,
		Hooks:     hooks,
		Src:       rng.New(req.seed()),
		RaceWidth: width,
	}
	if tb := timeoutFromMS(req.TimeBudgetMS, defs.TimeBudget); tb > 0 {
		opt.Deadline = time.Now().Add(tb)
	}
	return solver.Solve(inst, req.spec(), opt)
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

// shardOptions assembles the shard.Options of a server-side sharded solve:
// the per-shard solves run concurrently on goroutines of their own (the job
// itself occupies a serve worker; see Solve on why re-entering the service
// pool is off the table), consult the server's compositional cache, and
// count into the serve.shard_* metrics via the solve/hit events they emit.
func (s *Server) shardOptions(spec solver.Spec, seed uint64, tries, budget int,
	deadline time.Time, hooks obs.Hooks, cancel func() bool) shard.Options {
	return shard.Options{
		Spec: spec,
		Solver: solver.Options{
			Tries:    tries,
			Budget:   budget,
			Deadline: deadline,
			Cancel:   cancel,
		},
		Seed:          seed,
		TransientPool: true,
		Cache:         shardCache{s},
		Hooks:         hooks,
	}
}

// solveSharded is the sharded counterpart of Solve: partition, per-shard
// solve against the compositional cache, stitch with boundary repair. It
// returns the partition alongside the schedule so the result's ctx can
// rebase it when a PATCH arrives.
func (s *Server) solveSharded(inst *instance.Instance, req *Request,
	defs SolveDefaults, hooks obs.Hooks, cancel func() bool) (*core.Schedule, *shard.Partition, error) {
	p, err := shard.ByName(req.Partitioner, inst.Graph, nil, req.Shards, req.seed())
	if err != nil {
		return nil, nil, err
	}
	var deadline time.Time
	if tb := timeoutFromMS(req.TimeBudgetMS, defs.TimeBudget); tb > 0 {
		deadline = time.Now().Add(tb)
	}
	opt := s.shardOptions(req.spec(), req.seed(), req.tries(), req.budget(defs.Budget),
		deadline, hooks, cancel)
	solved, err := shard.SolveShards(inst, p, opt)
	if err != nil {
		return nil, nil, err
	}
	st, err := s.stitchCounted(inst, p, solved, hooks)
	if err != nil {
		return nil, nil, err
	}
	return st.Schedule, p, nil
}

// stitchCounted runs shard.Stitch and folds the outcome into the
// serve.shard_* metrics.
func (s *Server) stitchCounted(inst *instance.Instance, p *shard.Partition,
	solved []*shard.ShardResult, hooks obs.Hooks) (*shard.Stitched, error) {
	for _, sr := range solved {
		if sr.Cached {
			s.met.shardCacheHits.Inc()
		} else {
			s.met.shardSolves.Inc()
		}
	}
	st, err := shard.Stitch(inst, p, solved, hooks)
	if err != nil {
		return nil, err
	}
	s.met.shardRepairs.Add(uint64(st.Repairs))
	s.met.shardReplans.Add(uint64(st.Replans))
	return st, nil
}

// scheduleJSON renders a schedule into the cmd/ltsched interchange format.
func scheduleJSON(s *core.Schedule) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("serve: encoding schedule: %w", err)
	}
	return json.RawMessage(bytes.TrimSpace(buf.Bytes())), nil
}

// scheduleResult renders a solved schedule into the immutable cached Result,
// stamping the graph fingerprint and retaining the solved instance (ctx) so
// the result is addressable — and patchable — by PATCH /v1/schedule/{fp}.
func scheduleResult(key string, req *Request, inst *instance.Instance,
	s *core.Schedule, part *shard.Partition, defs SolveDefaults) (*Result, error) {
	raw, err := scheduleJSON(s)
	if err != nil {
		return nil, err
	}
	fp := inst.Graph.Fingerprint()
	return &Result{
		Key:         key,
		Kind:        "schedule",
		Algorithm:   req.Algorithm,
		Lifetime:    s.Lifetime(),
		Phases:      len(s.Phases),
		Schedule:    raw,
		Fingerprint: hex.EncodeToString(fp[:]),
		ctx: &scheduleCtx{
			inst:      inst,
			algorithm: req.Algorithm,
			seed:      req.seed(),
			tries:     req.tries(),
			sched:     s,
			spec:      req.spec(),
			budget:    req.budget(defs.Budget),
			part:      part,
		},
	}, nil
}
