// Package instance is the typed problem-instance model — the single
// currency of the solve path. An Instance bundles the graph, the per-node
// battery budgets, and the domination tolerance K that every layer used to
// pass around as a bare (g, budgets, k) triple, and carries a lazily
// computed structural classification (Meta) so structure-aware solvers can
// dispatch on what kind of instance they are looking at instead of
// re-deriving it per call.
//
// Classification never trusts its inputs: a generator hint (a graphgen
// edge-list comment, which Derive passes on from a parent instance to its
// shards) only steers which embeddings Classify tries first — every
// grid/torus claim is verified edge-for-edge before it lands in Meta, so a
// hinted lie degrades to Generic instead of a wrong fast path.
package instance

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

// Class is the verified structural family of an instance's graph.
type Class int

const (
	// Generic is the default: no special structure was verified.
	Generic Class = iota
	// Grid is the rows×cols grid graph with 4-neighborhoods (both
	// dimensions >= 2), up to node relabeling.
	Grid
	// Torus is the rows×cols grid with wraparound (both dimensions >= 3),
	// up to node relabeling.
	Torus
	// Tree is a connected acyclic graph (this includes paths, so a 1×n
	// "grid" classifies as Tree, not Grid).
	Tree
)

// String returns the class name the service and CLIs report.
func (c Class) String() string {
	switch c {
	case Grid:
		return "grid"
	case Torus:
		return "torus"
	case Tree:
		return "tree"
	default:
		return "generic"
	}
}

// Meta is the structure-detection result cached on an Instance. Every
// field is a verified fact.
type Meta struct {
	// Class is the verified structural family.
	Class Class
	// Rows, Cols are the grid/torus dimensions when Class is Grid or
	// Torus; zero otherwise.
	Rows, Cols int
	// Coords maps node id -> row*Cols + col for Grid/Torus classes: the
	// embedding the verifier certified. Nil otherwise.
	Coords []int32
}

// String renders the classification the way the CLIs report it, e.g.
// "grid 50x50" or "tree".
func (m *Meta) String() string {
	if m == nil {
		return Generic.String()
	}
	switch m.Class {
	case Grid, Torus:
		return fmt.Sprintf("%s %dx%d", m.Class, m.Rows, m.Cols)
	default:
		return m.Class.String()
	}
}

// Hint is unverified structural advice handed to the classifier — from a
// generator (graphgen tags its edge lists), or passed on by Derive from a
// parent instance to a child. Classify uses it only to order its trials.
type Hint struct {
	// Family is the advised family: "grid", "torus", or "".
	Family string
	// Rows, Cols are the advised dimensions for grid/torus families
	// (0 when unknown).
	Rows, Cols int
}

// String renders the hint in the form ParseHint reads ("grid 8 8",
// "torus 5 10"). Empty for the zero hint.
func (h Hint) String() string {
	if h.Family == "" {
		return ""
	}
	return fmt.Sprintf("%s %d %d", h.Family, h.Rows, h.Cols)
}

// ParseHint parses a hint string as emitted by Hint.String (and embedded
// in graphgen edge-list comments). Unknown or malformed hints come back as
// the zero Hint — a hint is advice, never an error.
func ParseHint(s string) Hint {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Hint{}
	}
	switch fields[0] {
	case "grid", "torus":
		h := Hint{Family: fields[0]}
		if len(fields) >= 3 {
			r, err1 := strconv.Atoi(fields[1])
			c, err2 := strconv.Atoi(fields[2])
			if err1 == nil && err2 == nil && r > 0 && c > 0 {
				h.Rows, h.Cols = r, c
			}
		}
		return h
	default:
		return Hint{}
	}
}

// Instance is a typed problem instance: the graph, the per-node budgets,
// the domination tolerance, and a lazily computed structural
// classification. Instances are passed by pointer — the Meta cache makes
// the value non-copyable — and are immutable after construction except
// for the WithK/WithHint builder calls.
type Instance struct {
	// Graph is the communication graph.
	Graph *graph.Graph
	// Budgets is the per-node battery vector (len == Graph.N()).
	Budgets []int
	// K is the domination tolerance. <= 0 reads as 1 (Tolerance).
	K int

	hint     Hint
	metaOnce sync.Once
	meta     *Meta
}

// New returns an instance over g with the given budgets and tolerance 1.
func New(g *graph.Graph, budgets []int) *Instance {
	return &Instance{Graph: g, Budgets: budgets}
}

// WithK sets the domination tolerance and returns the instance (builder
// style: instance.New(g, b).WithK(2)).
func (in *Instance) WithK(k int) *Instance {
	in.K = k
	return in
}

// WithHint attaches unverified structural advice for the classifier. It
// must be called before the first Meta() read to have any effect.
func (in *Instance) WithHint(h Hint) *Instance {
	in.hint = h
	return in
}

// Hint returns the attached structural advice (zero when none).
func (in *Instance) Hint() Hint { return in.hint }

// N returns the node count.
func (in *Instance) N() int { return in.Graph.N() }

// Tolerance returns the effective domination tolerance: max(1, K).
func (in *Instance) Tolerance() int {
	if in.K < 1 {
		return 1
	}
	return in.K
}

// Meta returns the structural classification, computing it on first use
// and caching it for the lifetime of the instance. Safe for concurrent
// callers.
func (in *Instance) Meta() *Meta {
	in.metaOnce.Do(func() {
		in.meta = Classify(in.Graph, in.hint)
	})
	return in.meta
}

// WithBudgets returns a new instance sharing this instance's graph,
// tolerance, hint, and (already computed) classification, with a
// different budget vector. This is the cheap path for layers that re-solve
// the same graph under residual budgets (reconfig, refinement restarts):
// structure depends only on the graph, so the Meta cache carries over.
func (in *Instance) WithBudgets(budgets []int) *Instance {
	out := &Instance{Graph: in.Graph, Budgets: budgets, K: in.K, hint: in.hint}
	if in.meta != nil {
		out.metaOnce.Do(func() { out.meta = in.meta })
	}
	return out
}

// Derive builds a child instance (a shard's local subgraph, a post-delta
// graph) from a parent: the child inherits the parent's tolerance and its
// hint, unchanged, but is classified from scratch on its own graph, so a
// rectangular shard of a grid re-verifies as a grid while an irregular one
// honestly lands on Generic.
func Derive(parent *Instance, sub *graph.Graph, budgets []int) *Instance {
	return New(sub, budgets).WithK(parent.K).WithHint(parent.hint)
}
