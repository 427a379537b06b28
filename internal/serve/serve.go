// Package serve is the lifetime-scheduling service: a long-running HTTP/JSON
// layer that admits schedule and PATCH requests, deduplicates and caches
// them, and computes them on a bounded worker pool. The paper's algorithms
// are cheap randomized routines (two message exchanges per node), so the
// engineering problem at serving scale is not the solver but the request
// path; this package is that path:
//
//   - a bounded job queue drained by a fixed worker pool (par.Pool) — never
//     one goroutine per request;
//   - single-flight request coalescing: identical concurrent requests share
//     one computation, keyed by the canonical request hash (graph.Hasher:
//     graph structure + budgets + algorithm + params + seed);
//   - an LRU result cache over the same keys, so a repeated request is a
//     lookup, not a recomputation;
//   - explicit backpressure: when the queue or the in-flight cap is full,
//     admission fails with 429 + Retry-After instead of queueing unboundedly;
//   - per-request deadlines wired into the repository's cancellation
//     convention (a sticky cancel func polled by the solver, surfacing
//     solver.ErrCanceled), so an in-flight request past its deadline
//     stops burning a worker;
//   - graceful drain: Shutdown stops admission (503) and waits until every
//     accepted job has finished — accepted work is never dropped;
//   - first-class observability: every admission outcome, cache hit ratio,
//     queue depth, and end-to-end latency lands in an obs.Registry served on
//     the same mux as /healthz.
//
// cmd/ltserve wires this into a binary; docs/SERVICE.md documents the API
// and semantics.
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/reconfig"
	"repro/internal/solver"
)

// FaultInjector is the chaos hook of the serving layer: when configured, it
// is invoked once per job right before the computation starts, and may sleep
// (slow worker) or return an error (failing worker). chaos.WorkerFault is
// the seeded implementation; tests may install gates of their own.
type FaultInjector interface {
	Invoke(key string) error
}

// Config configures a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers is the worker-pool size — the hard cap on concurrently
	// computing jobs. <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the jobs accepted but not yet picked up by a
	// worker. A full queue rejects admission with 429. <= 0 means 64.
	QueueDepth int
	// MaxInFlight caps jobs admitted but not yet finished (queued plus
	// running); beyond it admission returns 429. <= 0 means
	// QueueDepth + Workers (the natural capacity).
	MaxInFlight int
	// CacheSize is the LRU result-cache capacity in entries. <= 0 means 256.
	CacheSize int
	// DefaultTimeout is the per-request deadline when the request does not
	// carry one. <= 0 means 30s.
	DefaultTimeout time.Duration
	// MaxNodes rejects requests whose graph exceeds this node count with
	// 413 before any work happens. <= 0 means 1<<20.
	MaxNodes int
	// RaceWidth is the number of independently seeded solver attempts each
	// schedule job races concurrently (solver.Options.RaceWidth), per shard
	// when the job is sharded; the winner is a pure function of (seed,
	// width), so the server answers a request deterministically and cache
	// keys omit the width. <= 1 runs the sequential driver.
	RaceWidth int
	// DefaultOverlap is the overlap window (in slots) a PATCH request gets
	// when it does not specify one. <= 0 means reconfig.DefaultOverlap; a
	// per-request explicit 0 (pure swap) is still expressible through
	// PatchRequest.Overlap.
	DefaultOverlap int
	// DefaultBudget is the refinement move budget a schedule request gets
	// when it asks for refinement without a budget of its own. <= 0 defers
	// to the solver default.
	DefaultBudget int
	// DefaultTimeBudget is the wall-clock solve budget a schedule request
	// gets when it does not carry time_budget_ms. <= 0 means none. Unlike
	// DefaultTimeout (which fails the request), an expired time budget
	// truncates refinement to the best schedule found so far.
	DefaultTimeBudget time.Duration
	// Fault, when non-nil, degrades every worker invocation (see
	// FaultInjector). Nil injects nothing.
	Fault FaultInjector
	// Registry receives the service metrics; nil creates a private one.
	// The same registry is served on /metrics.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = c.QueueDepth + c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 20
	}
	if c.RaceWidth <= 0 {
		c.RaceWidth = 1
	}
	if c.DefaultOverlap <= 0 {
		c.DefaultOverlap = reconfig.DefaultOverlap
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the scheduling service. Create one with New, expose
// Server.Handler over HTTP (StartHTTP), and Shutdown to drain.
type Server struct {
	cfg   Config
	met   *metrics
	pool  *par.Pool
	cache *lruCache
	// hooks is every job's solver hook: it counts the attempts of whole,
	// sharded and PATCH solves into serve.solver_attempts.
	hooks    obs.Hooks
	draining atomic.Bool

	mu      sync.Mutex
	pending map[string]*job // keyed jobs admitted but not finished
}

// job is one admitted computation. Between admission and completion it lives
// in Server.pending under its key, which is what makes coalescing work: a
// second request for the same key attaches to the existing job instead of
// enqueueing a new one.
type job struct {
	key      string
	kind     string // "schedule" | "reconfig"
	enqueued time.Time
	deadline time.Time
	run      func(cancel func() bool) (*Result, error)

	state string // "queued" | "running"; guarded by Server.mu

	// result and err are written exactly once, before done is closed.
	result *Result
	err    error
	done   chan struct{}
}

// New builds a Server from cfg and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := newMetrics(cfg.Registry)
	return &Server{
		cfg:     cfg,
		met:     met,
		pool:    par.NewPool(cfg.Workers, cfg.QueueDepth),
		cache:   newLRUCache(cfg.CacheSize),
		hooks:   obs.Hooks{Trace: attemptTracer{met.solverAttempts}},
		pending: make(map[string]*job),
	}
}

// Registry returns the metrics registry the server reports into (the one
// served on /metrics).
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// Draining reports whether Shutdown has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit runs the admission pipeline for one request: cache lookup, coalesce
// onto a pending job, or enqueue a fresh one. Exactly one of the return
// values is meaningful: a non-nil cached Result, a job to wait on (with
// coalesced saying whether it was shared), or a non-zero HTTP status
// (429 queue/in-flight full, 503 draining).
func (s *Server) admit(key, kind string, timeout time.Duration,
	run func(cancel func() bool) (*Result, error)) (res *Result, j *job, coalesced bool, status int) {

	s.met.requests.Inc()
	if s.draining.Load() {
		s.met.rejectedDraining.Inc()
		return nil, nil, false, 503
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Cache and pending map are consulted under one lock so a key cannot
	// slip between them: completion stores to the cache before unlinking
	// the pending entry.
	if cached, ok := s.cache.get(key); ok {
		s.met.cacheHits.Inc()
		return cached, nil, false, 0
	}
	if existing := s.pending[key]; existing != nil {
		s.met.coalesced.Inc()
		return nil, existing, true, 0
	}
	s.met.cacheMisses.Inc()
	if len(s.pending) >= s.cfg.MaxInFlight {
		s.met.rejectedInFlight.Inc()
		return nil, nil, false, 429
	}
	now := time.Now()
	nj := &job{
		key:      key,
		kind:     kind,
		enqueued: now,
		deadline: now.Add(timeout),
		run:      run,
		state:    "queued",
		done:     make(chan struct{}),
	}
	if !s.pool.TrySubmit(func() { s.execute(nj) }) {
		s.met.rejectedQueueFull.Inc()
		return nil, nil, false, 429
	}
	s.pending[key] = nj
	s.met.admitted.Inc()
	s.met.pending.Set(int64(len(s.pending)))
	s.met.queueDepth.Set(int64(s.pool.QueueLen()))
	return nil, nj, false, 0
}

// execute runs one job on a pool worker: deadline check, fault injection,
// the computation itself, then completion bookkeeping (cache fill, pending
// unlink, metrics, waiter wake-up).
func (s *Server) execute(j *job) {
	s.met.queueWaitMS.Observe(msSince(j.enqueued))
	s.met.queueDepth.Set(int64(s.pool.QueueLen()))
	s.mu.Lock()
	j.state = "running"
	s.mu.Unlock()
	s.met.running.Add(1)
	defer s.met.running.Add(-1)

	// The one-off checks before the run read the clock: the timer behind
	// the job's poll may not have fired yet when the worker gets here.
	expired := func() bool { return !time.Now().Before(j.deadline) }

	var res *Result
	var err error
	switch {
	case expired():
		// Expired while queued: don't start at all.
		err = solver.ErrCanceled
	default:
		if s.cfg.Fault != nil {
			if ferr := s.cfg.Fault.Invoke(j.key); ferr != nil {
				s.met.workerFaults.Inc()
				err = ferr
			}
		}
		if err == nil && expired() {
			// A slow-worker fault may have eaten the whole budget.
			err = solver.ErrCanceled
		}
		if err == nil {
			// The sticky cancel contract of solver.Options.Cancel, polled
			// before every retry and refinement move: timer-backed, so a poll
			// reads no clock.
			cancel, stop := solver.DeadlinePoll(j.deadline)
			start := time.Now()
			res, err = j.run(cancel)
			stop()
			if res != nil {
				res.SolveMS = msSince(start)
			}
			s.met.solveMS.Observe(msSince(start))
		}
	}

	switch {
	case err == nil:
		s.met.completed.Inc()
	case errors.Is(err, solver.ErrCanceled):
		s.met.canceled.Inc()
	default:
		s.met.failed.Inc()
	}

	s.mu.Lock()
	if err == nil {
		s.cache.add(j.key, res)
	}
	delete(s.pending, j.key)
	s.met.pending.Set(int64(len(s.pending)))
	s.mu.Unlock()

	j.result, j.err = res, err
	close(j.done)
	s.met.latencyMS.Observe(msSince(j.enqueued))
}

// Shutdown drains the server: admission starts returning 503 immediately,
// and Shutdown blocks until every accepted job (queued or running) has
// finished, or ctx expires. Accepted jobs are never dropped — that is the
// contract load balancers rely on when they see /healthz flip to draining.
// On ctx expiry the remaining jobs keep running on the pool until done, but
// Shutdown stops waiting and returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// invalidateFingerprint drops every cached result computed for the graph
// with the given fingerprint and returns how many were removed. It is called
// from inside reconfig run closures — safe because execute runs jobs without
// holding mu — and its ordering against completion is what keeps PATCH
// results durable: the run invalidates the prior fingerprint first, then
// completion caches the patch result under the new fingerprint.
func (s *Server) invalidateFingerprint(fp string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.invalidate(fp)
}

// jobStatus returns the lifecycle state of the job under key: a pending
// state ("queued" or "running") with its kind, a cached result, or neither.
func (s *Server) jobStatus(key string) (state, kind string, res *Result, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.pending[key]; j != nil {
		return j.state, j.kind, nil, true
	}
	if cached, found := s.cache.get(key); found {
		return "done", cached.Kind, cached, true
	}
	return "", "", nil, false
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
