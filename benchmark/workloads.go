package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/solver"
)

// clients is the number of closed-loop clients. Each sends its next request
// only after the previous reply has been read, the way planners wait for
// their schedule.
const clients = 2

// workload is one traffic mix; BENCHMARK.json and README.md give the reason
// for each. rate is the nominal request rate of both clients together on
// the reference host (2 vCPUs); it only sizes rounds, so a run measures
// about -seconds there and sends the same requests everywhere.
type workload struct {
	name string
	rate float64
	gen  func(src *rng.Source, timed int) (*inputs, error)
}

var workloads = []*workload{
	{name: "hit-heavy", rate: 115, gen: genHitHeavy},
	{name: "solve-heavy", rate: 45, gen: genSolveHeavy},
	{name: "shard-large", rate: 14, gen: genShardLarge},
	{name: "patch-churn", rate: 600, gen: genPatchChurn},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// problem is the instance a POST asks to solve, kept by the generator so the
// benchmark can check the returned schedule without trusting the server.
type problem struct {
	g       *graph.Graph
	budgets []int
	k       int
	bound   int    // Lemma 5.1 (k = 1) or Lemma 6.1 (k > 1) upper bound
	fp      string // hex graph fingerprint the response must carry
}

// request is one pre-generated HTTP request. Its body is head followed by
// tail; requests on the same graph share one head, so a workload holds each
// large graph encoding once.
type request struct {
	method string // "POST" or "PATCH"
	path   string
	head   []byte
	tail   []byte
	prob   *problem // POST only
	// PATCH only: the delta the body carries, the cut-over slot, and the
	// hex fingerprint of the post-delta graph.
	delta *graph.Delta
	at    int
	fp    string
}

func (r *request) body() io.Reader {
	return io.MultiReader(bytes.NewReader(r.head), bytes.NewReader(r.tail))
}

func (r *request) size() int64 { return int64(len(r.head) + len(r.tail)) }

// inputs is everything one round sends: priming requests (sent once before
// warm-up, split between the clients) and each client's closed-loop
// sequence, whose first warm ops are untimed warm-up.
type inputs struct {
	prime   []*request
	clients [clients][]*request
	warm    int
}

// warmFor returns the untimed warm-up count that precedes timed ops: 10%.
func warmFor(timed int) int { return (timed + 9) / 10 }

// lemmaBound is the paper's upper bound on the optimal lifetime: Lemma 5.1
// for k = 1, and Lemma 6.1 for k > 1 (GeneralKTolerantUpperBound equals
// KTolerantUpperBound on uniform budgets and stays defined on others).
func lemmaBound(g *graph.Graph, budgets []int, k int) int {
	if k <= 1 {
		return core.GeneralUpperBound(g, budgets)
	}
	return core.GeneralKTolerantUpperBound(g, budgets, k)
}

func hexFingerprint(g *graph.Graph) string {
	fp := g.Fingerprint()
	return hex.EncodeToString(fp[:])
}

// graphHead encodes the opening of a schedule request body up to and
// including its graph.
func graphHead(g *graph.Graph) ([]byte, error) {
	spec := serve.GraphSpec{N: g.N(), Edges: make([][2]int, 0, g.M())}
	g.Edges(func(u, v int) { spec.Edges = append(spec.Edges, [2]int{u, v}) })
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("encoding graph: %w", err)
	}
	return append([]byte(`{"graph":`), b...), nil
}

// emptyGraph is how serve.Request encodes a zero graph; encoding a request
// without its graph and cutting this prefix leaves the tail that follows a
// graphHead, so field names always come from serve.Request itself.
var emptyGraph = []byte(`{"graph":{"n":0,"edges":null}`)

// newPost builds a POST /v1/schedule for rq on g (rq.Graph must be zero).
func newPost(g *graph.Graph, head []byte, rq serve.Request) (*request, error) {
	b, err := json.Marshal(rq)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	tail, ok := bytes.CutPrefix(b, emptyGraph)
	if !ok {
		return nil, fmt.Errorf("unexpected request encoding %.40s", b)
	}
	budgets := make([]int, g.N())
	for v := range budgets {
		budgets[v] = rq.Battery
		if len(rq.Batteries) > 0 {
			budgets[v] = rq.Batteries[v]
		}
	}
	k := max(rq.K, 1)
	return &request{
		method: "POST",
		path:   "/v1/schedule",
		head:   head,
		tail:   tail,
		prob: &problem{
			g: g, budgets: budgets, k: k,
			bound: lemmaBound(g, budgets, k),
			fp:    hexFingerprint(g),
		},
	}, nil
}

func randomBatteries(n, lo, hi int, src *rng.Source) []int {
	b := make([]int, n)
	for v := range b {
		b[v] = lo + src.Intn(hi-lo+1)
	}
	return b
}

// zipfSampler draws ranks in [0, n) with P(r) ∝ 1/(r+1)^s.
type zipfSampler []float64

func newZipf(n int, s float64) zipfSampler {
	cdf := make(zipfSampler, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

func (z zipfSampler) draw(src *rng.Source) int {
	return min(sort.SearchFloat64s(z, src.Float64()), len(z)-1)
}

// genHitHeavy: 8 UDGs (n = 1024) × {uniform b=4, general b∈[2,6], ft k=2
// b=4, auto b=4} = 32 distinct requests, all primed, then drawn Zipf(1.1).
func genHitHeavy(src *rng.Source, timed int) (*inputs, error) {
	const graphs, n = 8, 1024
	var distinct []*request
	for range graphs {
		g, _ := gen.RandomUDG(n, 1, 0.155, src.Split())
		head, err := graphHead(g)
		if err != nil {
			return nil, err
		}
		for _, rq := range []serve.Request{
			{Algorithm: serve.AlgUniform, Battery: 4},
			{Algorithm: serve.AlgGeneral, Batteries: randomBatteries(n, 2, 6, src)},
			{Algorithm: serve.AlgFT, K: 2, Battery: 4},
			{Algorithm: serve.AlgAuto, Battery: 4},
		} {
			r, err := newPost(g, head, rq)
			if err != nil {
				return nil, err
			}
			distinct = append(distinct, r)
		}
	}
	zipf := newZipf(len(distinct), 1.1)
	popularity := src.Perm(len(distinct))
	in := &inputs{prime: distinct, warm: warmFor(timed)}
	for c := range in.clients {
		for range in.warm + timed {
			in.clients[c] = append(in.clients[c], distinct[popularity[zipf.draw(src)]])
		}
	}
	return in, nil
}

// uniqueSeeds returns a per-request seed source: distinct for every client
// and op, so every request is a cache miss.
func uniqueSeeds(src *rng.Source) func(c, j int) uint64 {
	base := src.Uint64()>>20 | 1
	return func(c, j int) uint64 { return base + uint64(c)<<24 + uint64(j) }
}

// genUnique sends every request on one of gs with a seed no other request
// uses; rq is the request template.
func genUnique(src *rng.Source, timed int, gs []*graph.Graph, batteries [][]int, rq serve.Request) (*inputs, error) {
	heads := make([][]byte, len(gs))
	for i, g := range gs {
		var err error
		if heads[i], err = graphHead(g); err != nil {
			return nil, err
		}
	}
	seed := uniqueSeeds(src)
	in := &inputs{warm: warmFor(timed)}
	for c := range in.clients {
		for j := range in.warm + timed {
			i := (j*clients + c) % len(gs)
			rq.Seed = seed(c, j)
			if batteries != nil {
				rq.Batteries = batteries[i]
			}
			r, err := newPost(gs[i], heads[i], rq)
			if err != nil {
				return nil, err
			}
			in.clients[c] = append(in.clients[c], r)
		}
	}
	return in, nil
}

// genSolveHeavy: greedy+tabu (budget 100000) on 16 GNP graphs (n = 256) with
// batteries in [1,20]; every request has its own seed. Solve cost differs
// a lot between graphs, and with fewer graphs the slowest one sets the
// latency tail and the lifetime ratio of a seed.
func genSolveHeavy(src *rng.Source, timed int) (*inputs, error) {
	const graphs, n = 16, 256
	gs := make([]*graph.Graph, graphs)
	batteries := make([][]int, graphs)
	for i := range gs {
		gs[i] = gen.GNP(n, 0.13, src.Split())
		batteries[i] = randomBatteries(n, 1, 20, src)
	}
	return genUnique(src, timed, gs, batteries, serve.Request{
		Algorithm: solver.NameGreedy, Refine: "tabu", Budget: 100000,
	})
}

// genShardLarge: greedy b=8 with 4 BFS shards on 4 UDGs (n = 2048); every
// request has its own seed, which also seeds the partitioner.
func genShardLarge(src *rng.Source, timed int) (*inputs, error) {
	gs := make([]*graph.Graph, 4)
	for i := range gs {
		gs[i], _ = gen.RandomUDG(2048, 1, 0.115, src.Split())
	}
	return genUnique(src, timed, gs, nil, serve.Request{
		Algorithm: solver.NameGreedy, Battery: 8, Shards: 4, Partitioner: "bfs",
	})
}

// Patch-churn chain shape: one greedy POST, then patchesPerChain PATCHes,
// each cutting over at slot patchAt of the schedule before it.
const (
	patchesPerChain = 8
	patchAt         = 1
	patchBattery    = 10
)

// genPatchChurn gives each client 2 UDGs (n = 512) of its own and runs
// chains on them alternately. timed is rounded to whole chains.
func genPatchChurn(src *rng.Source, timed int) (*inputs, error) {
	const n = 512
	chains := max(1, (timed+patchesPerChain/2)/(patchesPerChain+1))
	warmChains := warmFor(chains)
	in := &inputs{warm: warmChains * (patchesPerChain + 1)}
	for c := range in.clients {
		var bases [2]*request
		for i := range bases {
			g := udgWithoutIsolated(n, 0.09, src)
			head, err := graphHead(g)
			if err != nil {
				return nil, err
			}
			rq := serve.Request{Algorithm: solver.NameGreedy, Battery: patchBattery}
			if bases[i], err = newPost(g, head, rq); err != nil {
				return nil, err
			}
		}
		// Every fingerprint a client's chain passes through is fresh, so no
		// PATCH can hit a cached result or find two candidate bases.
		seen := map[string]bool{bases[0].prob.fp: true, bases[1].prob.fp: true}
		for ch := range warmChains + chains {
			base := bases[ch%2]
			in.clients[c] = append(in.clients[c], base)
			g, fp := base.prob.g, base.prob.fp
			for range patchesPerChain {
				r, g2, err := newReplacement(g, fp, src, seen)
				if err != nil {
					return nil, err
				}
				in.clients[c] = append(in.clients[c], r)
				g, fp = g2, r.fp
			}
		}
	}
	return in, nil
}

// udgWithoutIsolated draws UDGs until one has no isolated node, so every
// node a replacement delta removes has neighbors to hand to its successor.
func udgWithoutIsolated(n int, radius float64, src *rng.Source) *graph.Graph {
	for {
		g, _ := gen.RandomUDG(n, 1, radius, src.Split())
		if g.MinDegree() > 0 {
			return g
		}
	}
}

// newReplacement builds a PATCH that removes a random node of g and adds a
// fresh one wired to the removed node's neighbors.
func newReplacement(g *graph.Graph, fp string, src *rng.Source, seen map[string]bool) (*request, *graph.Graph, error) {
	n := g.N()
	for {
		v := src.Intn(n)
		d := graph.Delta{RemoveNodes: []int{v}, AddNodes: 1, NewBudgets: []int{patchBattery}}
		for _, u := range g.Neighbors(v) {
			nu := int(u)
			if nu > v {
				nu-- // survivors renumber compactly
			}
			d.AddEdges = append(d.AddEdges, [2]int{nu, n - 1})
		}
		g2, _, _, err := d.Apply(g, make([]int, n))
		if err != nil {
			return nil, nil, fmt.Errorf("replacement delta: %w", err)
		}
		fp2 := hexFingerprint(g2)
		if seen[fp2] {
			continue
		}
		seen[fp2] = true
		body, err := json.Marshal(serve.PatchRequest{Delta: d, At: patchAt})
		if err != nil {
			return nil, nil, fmt.Errorf("encoding patch: %w", err)
		}
		return &request{
			method: "PATCH",
			path:   "/v1/schedule/" + fp,
			tail:   body,
			delta:  &d,
			at:     patchAt,
			fp:     fp2,
		}, g2, nil
	}
}
