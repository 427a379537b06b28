package serve

import "repro/internal/obs"

// LatencyBounds is the bucket layout (milliseconds) of the service latency
// histograms: sub-millisecond cache hits through multi-second solves of
// large or sharded graphs.
var LatencyBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// metrics is the service's obs surface, resolved once at construction so the
// request path pays atomic adds, not registry lookups. Every admission
// outcome is counted exactly once per request:
//
//	serve.requests = serve.cache_hits + serve.coalesced + serve.admitted
//	               + serve.rejected_* ,
//	serve.admitted = serve.completed + serve.canceled + serve.failed
//	               (once the server is drained),
//
// which is what the end-to-end tests assert behavior against.
// serve.alias_hits counts the cache hits answered by a body-digest alias,
// before the body was decoded; they are part of serve.cache_hits.
//
// The serve.solver_* group observes the solver driver: serve.solver_attempts
// counts the WHP retries of every job's solves — whole, per-shard and raced,
// PATCH re-solves included — via the driver's obs.EvAttempt hook
// (Server.hooks), while exactly one of serve.solver_sequential /
// serve.solver_raced increments per executed schedule job, keyed on whether
// the configured race width exceeds 1.
type metrics struct {
	requests          *obs.Counter
	admitted          *obs.Counter
	cacheHits         *obs.Counter
	aliasHits         *obs.Counter
	cacheMisses       *obs.Counter
	coalesced         *obs.Counter
	rejectedQueueFull *obs.Counter
	rejectedInFlight  *obs.Counter
	rejectedDraining  *obs.Counter
	completed         *obs.Counter
	canceled          *obs.Counter
	failed            *obs.Counter
	workerFaults      *obs.Counter
	solverAttempts    *obs.Counter
	solverSequential  *obs.Counter
	solverRaced       *obs.Counter

	// The serve.reconfig_* group observes PATCH /v1/schedule/{fp}:
	// serve.reconfigs counts executed reconfig jobs, of which
	// serve.reconfig_degraded fell short of the request (shorter overlap or
	// solver fallback) and serve.reconfig_violations lost domination;
	// serve.overlap_energy accumulates the residual slots charged to outgoing
	// dominators, and serve.invalidated the cache entries dropped because
	// their graph was superseded by a delta.
	reconfigs          *obs.Counter
	reconfigDegraded   *obs.Counter
	reconfigViolations *obs.Counter
	invalidated        *obs.Counter
	overlapEnergy      *obs.Counter

	// The serve.shard_* group observes sharded solves (Request.Shards > 1):
	// serve.shard_solves counts per-shard solver runs, serve.shard_cache_hits
	// the shards answered from the compositional cache instead — after a
	// PATCH whose delta touched one tile, exactly one solve and shards-1 hits.
	// serve.shard_repairs and serve.shard_replans count the stitcher's
	// boundary recruitments and shard replan escalations.
	shardSolves    *obs.Counter
	shardCacheHits *obs.Counter
	shardRepairs   *obs.Counter
	shardReplans   *obs.Counter

	queueDepth *obs.Gauge
	running    *obs.Gauge
	pending    *obs.Gauge

	latencyMS   *obs.Histogram
	queueWaitMS *obs.Histogram
	solveMS     *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		requests:          reg.Counter("serve.requests"),
		admitted:          reg.Counter("serve.admitted"),
		cacheHits:         reg.Counter("serve.cache_hits"),
		aliasHits:         reg.Counter("serve.alias_hits"),
		cacheMisses:       reg.Counter("serve.cache_misses"),
		coalesced:         reg.Counter("serve.coalesced"),
		rejectedQueueFull: reg.Counter("serve.rejected_queue_full"),
		rejectedInFlight:  reg.Counter("serve.rejected_inflight"),
		rejectedDraining:  reg.Counter("serve.rejected_draining"),
		completed:         reg.Counter("serve.completed"),
		canceled:          reg.Counter("serve.canceled"),
		failed:            reg.Counter("serve.failed"),
		workerFaults:      reg.Counter("serve.worker_faults"),
		solverAttempts:    reg.Counter("serve.solver_attempts"),
		solverSequential:  reg.Counter("serve.solver_sequential"),
		solverRaced:       reg.Counter("serve.solver_raced"),

		reconfigs:          reg.Counter("serve.reconfigs"),
		reconfigDegraded:   reg.Counter("serve.reconfig_degraded"),
		reconfigViolations: reg.Counter("serve.reconfig_violations"),
		invalidated:        reg.Counter("serve.invalidated"),
		overlapEnergy:      reg.Counter("serve.overlap_energy"),

		shardSolves:    reg.Counter("serve.shard_solves"),
		shardCacheHits: reg.Counter("serve.shard_cache_hits"),
		shardRepairs:   reg.Counter("serve.shard_repairs"),
		shardReplans:   reg.Counter("serve.shard_replans"),
		queueDepth:     reg.Gauge("serve.queue_depth"),
		running:        reg.Gauge("serve.running"),
		pending:        reg.Gauge("serve.pending"),
		latencyMS:      reg.Histogram("serve.latency_ms", LatencyBounds),
		queueWaitMS:    reg.Histogram("serve.queue_wait_ms", LatencyBounds),
		solveMS:        reg.Histogram("serve.solve_ms", LatencyBounds),
	}
}

// attemptTracer is the tracer of Server.hooks: it counts every WHP retry
// into serve.solver_attempts. The racing driver and shard.SolveShards
// serialize emissions, and obs.Counter is atomic anyway.
type attemptTracer struct{ c *obs.Counter }

func (a attemptTracer) Emit(ev obs.Event) {
	if ev.Type == obs.EvAttempt {
		a.c.Inc()
	}
}
