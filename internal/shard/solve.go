package shard

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Cache is the compositional shard-schedule cache contract. Keys are
// content-addressed (Key), so implementations never need an invalidation
// protocol: a shard whose local instance changed simply has a new key, and
// a stale entry ages out of whatever eviction policy the implementation
// uses. Implementations must be safe for concurrent use — concurrent
// per-shard solves call Get/Put from their own goroutines.
type Cache interface {
	// Get returns the schedule cached under key, if any. Callers must not
	// mutate the returned schedule.
	Get(key string) (*core.Schedule, bool)
	// Put stores the schedule under key.
	Put(key string, s *core.Schedule)
}

// Options configures a sharded solve.
type Options struct {
	// Spec names the registry solver every shard runs (including refiner
	// specs with a Base).
	Spec solver.Spec
	// Solver carries the per-shard driver knobs — Tries, Budget, Deadline,
	// Cancel, Hooks, RaceWidth — shared by every shard. Src is ignored:
	// per-shard sources derive from Seed so cache keys can name them. Hooks
	// also receives one obs "shard" event per shard: stage "hit" for a cache
	// hit, "solve" for a fresh solve. The shards emit concurrently, so
	// SolveShards synchronizes the tracer.
	Solver solver.Options
	// Seed is the root seed. Shard i solves with the i-th split child (by
	// stable Shard.Index), so results are deterministic in (partition,
	// Seed) and independent of scheduling; the seed is part of every cache
	// key.
	Seed uint64
	// TransientPool, when true, solves the shards concurrently on
	// min(GOMAXPROCS, shards) goroutines for the duration of the call;
	// false solves them one after another on the caller.
	TransientPool bool
	// Cache, when non-nil, is consulted before and updated after every
	// per-shard solve.
	Cache Cache
}

// ShardResult is one shard's solved schedule, in the shard's local IDs.
type ShardResult struct {
	Shard    *Shard
	Schedule *core.Schedule
	// Key is the content-addressed cache key of this solve (local
	// instance + solver parameters + seed).
	Key string
	// Cached reports whether Schedule came from the cache.
	Cached bool
}

// Key returns the content-addressed cache key of solving sh as a piece of
// the parent instance: the shard's local fingerprint material plus every
// solver parameter that determines the schedule. Two invocations share a
// key exactly when they are guaranteed to produce the same schedule. The
// parent's tolerance and structure hint are part of the key — the hint can
// steer the classifier's choice among equally valid embeddings, which the
// grid solver's coloring depends on.
func Key(sh *Shard, parent *instance.Instance, opt Options) string {
	h := graph.NewHasher()
	sh.HashInto(h, parent.Budgets)
	h.String("shard.alg", opt.Spec.Name)
	h.String("shard.base", opt.Spec.Base)
	h.Int("shard.k", parent.Tolerance())
	h.String("shard.hint", parent.Hint().String())
	h.Float("shard.kconst", opt.Spec.KConst)
	h.Int("shard.tries", opt.Solver.Tries)
	h.Int("shard.budget", opt.Solver.Budget)
	h.Int("shard.width", opt.Solver.RaceWidth)
	h.Uint64("shard.seed", opt.Seed)
	h.Int("shard.index", sh.Index)
	return h.Sum()
}

// SolveShards solves every shard of p independently — concurrently when
// Options.TransientPool is set — and returns the per-shard schedules in
// partition position order. Shard i's typed instance derives from the
// parent via instance.Derive: its local subgraph (owned nodes plus halo, so
// boundary nodes keep full closed neighborhoods) under the local slice of
// the parent's budgets, inheriting the parent's tolerance and structure
// hint (a tile of a certified grid re-verifies as a grid in its own right,
// so per-shard auto dispatch stays honest). Shard i's source is
// the Index-th split child of the root seed, making the outcome
// deterministic and each shard's result a pure function of its cache key.
//
// The first shard error cancels the remaining solves (by position, so the
// reported error is deterministic too). A fired Options.Solver.Cancel or
// Deadline surfaces as solver.ErrCanceled.
func SolveShards(parent *instance.Instance, p *Partition, opt Options) ([]*ShardResult, error) {
	budgets := parent.Budgets
	if len(budgets) != len(p.Assign) {
		return nil, fmt.Errorf("shard: %d budgets for %d nodes", len(budgets), len(p.Assign))
	}
	maxIndex := 0
	for _, sh := range p.Shards {
		if sh.Index > maxIndex {
			maxIndex = sh.Index
		}
	}
	children := rng.New(opt.Seed).SplitN(maxIndex + 1)
	hooks := obs.Hooks{Trace: obs.Synchronized(opt.Solver.Hooks.Trace)}

	results := make([]*ShardResult, len(p.Shards))
	errs := make([]error, len(p.Shards))
	var aborted atomic.Bool
	baseCancel := opt.Solver.Cancel
	cancel := func() bool {
		return aborted.Load() || (baseCancel != nil && baseCancel())
	}

	solveOne := func(pos int) {
		sh := p.Shards[pos]
		key := Key(sh, parent, opt)
		if opt.Cache != nil {
			if s, ok := opt.Cache.Get(key); ok {
				results[pos] = &ShardResult{Shard: sh, Schedule: s, Key: key, Cached: true}
				hooks.Emit(obs.Shard("hit", sh.Index, 0, s.Lifetime(), 0))
				return
			}
		}
		if aborted.Load() {
			errs[pos] = solver.ErrCanceled
			return
		}
		so := opt.Solver
		so.Src = children[sh.Index]
		so.Cancel = cancel
		so.Hooks = hooks
		local := sh.LocalBudgets(budgets, nil)
		s, err := solver.Solve(instance.Derive(parent, sh.Sub, local), opt.Spec, so)
		if err != nil {
			errs[pos] = err
			aborted.Store(true)
			return
		}
		results[pos] = &ShardResult{Shard: sh, Schedule: s, Key: key}
		hooks.Emit(obs.Shard("solve", sh.Index, 0, s.Lifetime(), 0))
		if opt.Cache != nil {
			opt.Cache.Put(key, s)
		}
	}

	if opt.TransientPool {
		par.ForEach(len(p.Shards), solveOne)
	} else {
		for pos := range p.Shards {
			solveOne(pos)
		}
	}

	// A real error outranks the sibling cancellations it triggered.
	canceled := false
	for pos, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, solver.ErrCanceled) {
			canceled = true
			continue
		}
		return nil, fmt.Errorf("shard %d: %w", p.Shards[pos].Index, err)
	}
	if canceled {
		return nil, solver.ErrCanceled
	}
	return results, nil
}
