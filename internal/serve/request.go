package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/solver"
)

// Algorithm names accepted by the schedule endpoint. The service accepts
// every name in the internal/solver registry; these aliases of the paper
// algorithms' registry names are kept for callers of the Go API.
const (
	AlgUniform = solver.NameUniform // Algorithm 1: uniform batteries
	AlgGeneral = solver.NameGeneral // Algorithm 2: arbitrary batteries
	AlgFT      = solver.NameFT      // Algorithm 3: uniform batteries, k-tolerant
	AlgAuto    = solver.NameAuto    // portfolio: structure detection picks the solver
)

// GraphSpec is the wire form of a network graph: a node count and an
// undirected edge list. Unlike the internal constructors it validates
// rather than panics — it is the trust boundary of the service. The edge
// list is parsed by graph.ParseEdgeList, which rejects any element that is
// not exactly two integers: in place in a schedule body (decodeSchedule),
// through graph.EdgeList elsewhere.
type GraphSpec struct {
	N     int            `json:"n"`
	Edges graph.EdgeList `json:"edges"`
}

// build checks the maxNodes cap and constructs the graph through
// graph.FromEdges, which validates node range, self-loops and duplicate
// edges.
func (gs GraphSpec) build(maxNodes int) (*graph.Graph, error) {
	if gs.N < 0 {
		return nil, fmt.Errorf("graph.n = %d must be >= 0", gs.N)
	}
	if gs.N > maxNodes {
		return nil, errTooLarge{fmt.Sprintf("graph.n = %d exceeds the service cap of %d nodes", gs.N, maxNodes)}
	}
	return graph.FromEdges(gs.N, gs.Edges)
}

// errTooLarge marks a request rejected for size (HTTP 413) rather than
// shape (HTTP 400).
type errTooLarge struct{ msg string }

func (e errTooLarge) Error() string { return e.msg }

// maxShards caps a schedule request's shards. shard.BFS seeds each shard
// with a full BFS and polls no deadline, so its cost grows as
// shards·(n+m) and a large count would hold a worker long past the
// request's timeout.
const maxShards = 64

// Request is a schedule request: a graph, per-node duty budgets, and
// algorithm parameters. Delivery options (TimeoutMS, Async) are not part of
// the canonical cache key — two clients asking for the same schedule with
// different patience share one computation and one cache entry.
type Request struct {
	Graph     GraphSpec `json:"graph"`
	Algorithm string    `json:"algorithm"`
	// Battery is the uniform per-node budget; Batteries, when non-empty,
	// gives per-node budgets instead (required length N). The uniform
	// algorithms (uniform, ft) accept Batteries only if all entries agree.
	Battery   int     `json:"battery,omitempty"`
	Batteries []int   `json:"batteries,omitempty"`
	K         int     `json:"k,omitempty"`      // domination tolerance; default 1
	KConst    float64 `json:"kconst,omitempty"` // color-range constant; default 3
	Seed      uint64  `json:"seed,omitempty"`   // randomness seed; default 1
	Tries     int     `json:"tries,omitempty"`  // WHP retry budget; default 30
	// Refine names a refinement solver ("tabu", "anneal") to run on top of
	// Algorithm's schedule; empty means no refinement. Budget bounds the
	// refiner's candidate moves (0 = solver default), and TimeBudgetMS is the
	// wall-clock solve budget — unlike TimeoutMS it does not fail the request
	// but truncates refinement to the best schedule found so far. All three
	// change the response, so they are part of the cache key.
	Refine       string `json:"refine,omitempty"`
	Budget       int    `json:"budget,omitempty"`
	TimeBudgetMS int    `json:"time_budget_ms,omitempty"`
	// Shards > 1 partitions the graph (internal/shard), solves every shard
	// independently against the server's compositional shard cache, and
	// stitches the results with boundary repair. 0 or 1 solves whole; more
	// than maxShards is rejected. Partitioner names the strategy; service
	// graphs arrive as edge lists with no coordinates, so only "bfs" (the
	// default) is accepted. Both change the response, so both are part of
	// the cache key.
	Shards      int    `json:"shards,omitempty"`
	Partitioner string `json:"partitioner,omitempty"`
	TimeoutMS   int    `json:"timeout_ms,omitempty"` // per-request deadline; default server-side
	Async       bool   `json:"async,omitempty"`      // 202 + poll /v1/jobs/{key} instead of waiting
}

func (r *Request) k() int {
	if r.K <= 0 {
		return 1
	}
	return r.K
}

func (r *Request) kconst() float64 {
	if r.KConst <= 0 {
		return 3
	}
	return r.KConst
}

func (r *Request) seed() uint64 {
	if r.Seed == 0 {
		return 1
	}
	return r.Seed
}

func (r *Request) tries() int {
	if r.Tries <= 0 {
		return 30
	}
	return r.Tries
}

func (r *Request) budget(fallback int) int {
	if r.Budget <= 0 {
		return fallback
	}
	return r.Budget
}

// spec is the solver.Spec the request resolves to: the algorithm itself, or
// — when Refine is set — the refiner with the algorithm as its base. The
// domination tolerance is not spec material anymore: it lives on the typed
// instance resolve builds.
func (r *Request) spec() solver.Spec {
	s := solver.Spec{Name: r.Algorithm, KConst: r.kconst()}
	if r.Refine != "" {
		s.Name = r.Refine
		s.Base = r.Algorithm
	}
	return s
}

// options is the one builder of a schedule job's solver.Options, whole or
// sharded: the request's tries and budget (defs.Budget when it has none) and
// a source seeded from its seed, the race width, hooks and cancel, and the
// time budget (the request's time_budget_ms, else defs.TimeBudget) as a
// deadline from now. A sharded solve ignores Src: shard.SolveShards derives
// the per-shard sources from the seed.
func (r *Request) options(width int, defs SolveDefaults, hooks obs.Hooks, cancel func() bool) solver.Options {
	opt := solver.Options{
		Tries:     r.tries(),
		Budget:    r.budget(defs.Budget),
		Cancel:    cancel,
		Hooks:     hooks,
		Src:       rng.New(r.seed()),
		RaceWidth: width,
	}
	if tb := timeoutFromMS(r.TimeBudgetMS, defs.TimeBudget); tb > 0 {
		opt.Deadline = time.Now().Add(tb)
	}
	return opt
}

// timeoutFromMS converts a request's millisecond field to a duration:
// fallback when unset, and the largest time.Duration for values too large
// to convert, which would otherwise wrap around.
func timeoutFromMS(ms int, fallback time.Duration) time.Duration {
	if ms <= 0 {
		return fallback
	}
	if d := time.Duration(ms); d <= math.MaxInt64/time.Millisecond {
		return d * time.Millisecond
	}
	return math.MaxInt64
}

// parseSchedule runs every step POST /v1/schedule takes before admission:
// the strict decode (decodeSchedule), resolve, and the canonical key.
// errorStatus maps its errors onto HTTP.
func parseSchedule(body []byte, maxNodes int) (*Request, *instance.Instance, string, error) {
	var req Request
	if err := decodeSchedule(body, &req); err != nil {
		return nil, nil, "", err
	}
	inst, err := req.resolve(maxNodes)
	if err != nil {
		return nil, nil, "", err
	}
	return &req, inst, req.key(inst), nil
}

// resolve validates the request and returns the typed instance it
// describes: the built graph under the normalized per-node budget vector
// (uniform scalars expanded) and the domination tolerance, which is what
// both the solver and the canonical key consume. The algorithm name
// resolves through the internal/solver registry, and the solver's own
// Validate supplies the shape checks (budget-vector length and signs,
// uniformity for the uniform algorithms, tolerance restrictions, node caps
// for the exponential baselines) — all surfaced as client errors. For
// algorithm "auto" that validation runs the portfolio dispatch at decode
// time, so a refine stage stacked on an auto that resolves to a
// non-refinable fast path (the grid solver) is a 400 here, before any job
// is enqueued.
func (r *Request) resolve(maxNodes int) (*instance.Instance, error) {
	if _, ok := solver.Get(r.Algorithm); !ok {
		return nil, fmt.Errorf("unknown algorithm %q (have %s)",
			r.Algorithm, strings.Join(solver.Names(), ", "))
	}
	if r.Refine != "" && !slices.Contains(solver.RefinerNames(), r.Refine) {
		return nil, fmt.Errorf("refine = %q is not a refinement solver (have %s)",
			r.Refine, strings.Join(solver.RefinerNames(), ", "))
	}
	sv, _ := solver.Get(r.spec().Name)
	if r.K < 0 {
		return nil, fmt.Errorf("k = %d must be >= 1", r.K)
	}
	if r.KConst < 0 {
		return nil, fmt.Errorf("kconst = %v must be > 0", r.KConst)
	}
	if r.Tries < 0 {
		return nil, fmt.Errorf("tries = %d must be >= 0", r.Tries)
	}
	if r.Budget < 0 {
		return nil, fmt.Errorf("budget = %d must be >= 0", r.Budget)
	}
	if r.TimeBudgetMS < 0 {
		return nil, fmt.Errorf("time_budget_ms = %d must be >= 0", r.TimeBudgetMS)
	}
	if r.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms = %d must be >= 0", r.TimeoutMS)
	}
	if r.Shards < 0 {
		return nil, fmt.Errorf("shards = %d must be >= 0", r.Shards)
	}
	if r.Shards > maxShards {
		return nil, fmt.Errorf("shards = %d exceeds the service cap of %d", r.Shards, maxShards)
	}
	switch r.Partitioner {
	case "", "bfs":
	case "geom":
		return nil, fmt.Errorf("partitioner = %q needs node coordinates, which edge-list requests do not carry; use \"bfs\"", r.Partitioner)
	default:
		return nil, fmt.Errorf("unknown partitioner %q (have %s)",
			r.Partitioner, strings.Join(shard.Partitioners(), ", "))
	}
	g, err := r.Graph.build(maxNodes)
	if err != nil {
		return nil, err
	}

	budgets := make([]int, g.N())
	switch {
	case len(r.Batteries) > 0:
		if len(r.Batteries) != g.N() {
			return nil, fmt.Errorf("%d batteries for %d nodes", len(r.Batteries), g.N())
		}
		for v, b := range r.Batteries {
			if b < 0 {
				return nil, fmt.Errorf("batteries[%d] = %d must be >= 0", v, b)
			}
			budgets[v] = b
		}
	default:
		if r.Battery < 0 {
			return nil, fmt.Errorf("battery = %d must be >= 0", r.Battery)
		}
		for v := range budgets {
			budgets[v] = r.Battery
		}
	}
	if err := checkBudgetTotal(budgets); err != nil {
		return nil, err
	}
	inst := instance.New(g, budgets).WithK(r.k())
	// The effective solver's Validate supplies the shape checks; a refiner's
	// Validate also resolves and validates its base algorithm (running the
	// auto dispatch if the base says so).
	if err := sv.Validate(inst, r.spec()); err != nil {
		return nil, err
	}
	return inst, nil
}

// checkBudgetTotal rejects a non-negative budget vector whose total exceeds
// math.MaxInt. Every lifetime, every Lemma 4.1/5.1/6.1 bound and every energy
// total is at most the total budget, so none of them can overflow once it
// fits. The sum is checked before each addition, so it cannot wrap either.
func checkBudgetTotal(budgets []int) error {
	total := 0
	for _, b := range budgets {
		if b > math.MaxInt-total {
			return fmt.Errorf("budgets total more than %d", math.MaxInt)
		}
		total += b
	}
	return nil
}

// key returns the canonical cache/coalescing key of the request: the
// graph.Hasher sum over graph structure, normalized budgets, algorithm, and
// parameters. Delivery options are deliberately excluded. Requests for
// "auto" key on the literal name "auto", not on the solver the portfolio
// dispatches to — the dispatch is deterministic in the graph (which the key
// hashes in full), so the entry can never go stale, and an explicit request
// for the concrete solver stays a distinct cache line.
func (r *Request) key(inst *instance.Instance) string {
	return graph.NewHasher().
		String("kind", "schedule").
		Graph("graph", inst.Graph).
		Ints("budgets", inst.Budgets).
		String("alg", r.Algorithm).
		String("refine", r.Refine).
		Int("k", r.k()).
		Float("kconst", r.kconst()).
		Uint64("seed", r.seed()).
		Int("tries", r.tries()).
		Int("budget", r.Budget).
		Int("time_budget_ms", r.TimeBudgetMS).
		Int("shards", r.Shards).
		String("partitioner", r.Partitioner).
		Sum()
}

// Result is the cached, immutable outcome of one computation. Schedule
// results carry the schedule in the cmd/ltsched interchange format; reconfig
// results carry the transition schedule plus the delta bookkeeping
// (fingerprints, mapping, overlap cost). Per-response metadata (cached,
// coalesced) lives in the HTTP envelope, not here, so one Result can serve
// many responses.
type Result struct {
	Key       string          `json:"key"`
	Kind      string          `json:"kind"` // "schedule" | "reconfig"
	Algorithm string          `json:"algorithm,omitempty"`
	Lifetime  int             `json:"lifetime,omitempty"`
	Phases    int             `json:"phases,omitempty"`
	Schedule  json.RawMessage `json:"schedule,omitempty"`
	SolveMS   float64         `json:"solve_ms"`

	// Fingerprint is the hex graph fingerprint the schedule was computed
	// for — the address PATCH /v1/schedule/{fingerprint} patches against and
	// the key the cache's invalidation index groups by.
	Fingerprint string `json:"fingerprint,omitempty"`
	// The reconfig fields below are set only on Kind == "reconfig" results.
	// PriorFingerprint is the fingerprint the delta was applied to;
	// Fingerprint above is the post-delta one (chained PATCHes address it).
	PriorFingerprint string `json:"prior_fingerprint,omitempty"`
	Overlap          int    `json:"overlap,omitempty"`        // achieved overlap window, slots
	OverlapEnergy    int    `json:"overlap_energy,omitempty"` // extra slots charged to outgoing nodes
	Degraded         bool   `json:"degraded,omitempty"`       // shorter window or solver fallback
	Violation        bool   `json:"violation,omitempty"`      // domination could not be preserved
	Invalidated      int    `json:"invalidated,omitempty"`    // cache entries dropped for the prior fingerprint
	Mapping          []int  `json:"mapping,omitempty"`        // old→new node IDs, -1 = removed

	// ctx carries the solved instance (graph, budgets, schedule) alongside
	// the wire payload so a PATCH against this result's fingerprint can plan
	// a transition without re-parsing anything. Unexported: never serialized,
	// immutable once set.
	ctx *scheduleCtx
	// shardSched is set only on Kind == "shard" entries: one shard's cached
	// schedule under its content-addressed key (see shardCache). These
	// entries carry no Fingerprint on purpose — fingerprint invalidation
	// must never drop them.
	shardSched *core.Schedule
}
