// Package experiments defines the reproduction experiments E1–E26 listed in
// DESIGN.md. The paper is theoretical, so each experiment measures the
// quantity one of its theorems, lemmas, figures, or cited results bounds and
// renders a table; EXPERIMENTS.md records the expected shapes. The
// experiments are one ordered list in this file, each entry an ID, a title
// and the function that builds the table. The same code backs cmd/ltbench
// and the root-level benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// solve resolves an algorithm by its solver-registry name and runs the
// shared WHP driver with the trial's randomness source — the one way every
// experiment obtains a schedule. Experiments construct well-formed
// instances, so a driver error is a bug and panics rather than threading
// error plumbing through every trial closure.
func solve(name string, g *graph.Graph, budgets []int, k, tries int, src *rng.Source) *core.Schedule {
	s, err := solver.Solve(instance.New(g, budgets).WithK(k), solver.Spec{Name: name},
		solver.Options{Tries: tries, Src: src})
	if err != nil {
		panic(fmt.Sprintf("experiments: solver %q: %v", name, err))
	}
	return s
}

// Config controls an experiment run.
type Config struct {
	// Seed makes every experiment deterministic end to end.
	Seed uint64
	// Trials is the number of repetitions per data point (0 = default 10,
	// or 3 in Quick mode).
	Trials int
	// Quick shrinks the parameter sweeps to test/bench-friendly sizes.
	Quick bool
	// Budget overrides the refinement move budget of the experiments that
	// run the tabu/anneal refiners (E25). 0 keeps each experiment's sweep.
	Budget int
	// Trace, when non-nil, receives trial_start/trial_end events around
	// every trial, labeled with the experiment ID. Emissions are serialized
	// (trials run in parallel), so single-writer sinks like obs.JSONL are
	// safe to pass directly.
	Trace obs.Tracer
}

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return 3
	}
	return 10
}

// mapTrials runs fn for trials 0..n-1 in parallel (via par.Map). When
// cfg.Trace is set, it receives trial_start/trial_end events labeled with
// the experiment ID; otherwise this is exactly par.Map.
func mapTrials[T any](cfg Config, id string, n int, fn func(i int) T) []T {
	if cfg.Trace == nil {
		return par.Map(n, fn)
	}
	// Trials run in parallel; serialize the trial events so single-writer
	// sinks (JSONL, Memory) can be handed in directly.
	h := obs.Hooks{Trace: obs.Synchronized(cfg.Trace)}
	return par.Map(n, func(i int) T {
		h.Emit(obs.TrialStart(id, i))
		v := fn(i)
		h.Emit(obs.TrialEnd(id, i))
		return v
	})
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the table in RFC-4180-ish CSV (header row first, notes
// omitted) for downstream plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is one entry of the experiment list.
type Experiment struct {
	ID    string
	Title string
	// Run builds the table's header, rows and notes; the package's Run
	// stamps ID and Title on it.
	Run func(Config) *Table
}

// list holds every experiment, in ID order.
var list = []Experiment{
	{"E1", "Figure 1 — 7-node instance with optimal lifetime 6", runE1},
	{"E2", "Theorem 4.3 — uniform approximation ratio scales like ln n", runE2},
	{"E3", "Lemma 4.2 — color-class success probability vs constant K", runE3},
	{"E4", "Theorem 5.3 — general (non-uniform battery) approximation ratio", runE4},
	{"E5", "Theorem 6.2 — k-tolerant approximation ratio in both regimes", runE5},
	{"E6", "Algorithm comparison against the exact optimum (small instances)", runE6},
	{"E7", "Fujita lower bound — greedy-minimum domatic partition collapses to 2 sets", runE7},
	{"E8", "Distributed cost — constant rounds, messages linear in edges", runE8},
	{"E9", "Feige et al. — domatic partition sizes against (δ+1)/ln Δ and δ+1", runE9},
	{"E10", "Adversarial failure injection — k-tolerant schedules survive any budget < k", runE10},
	{"E11", "Future work (§7) — the lifetime cost of requiring connected dominating sets", runE11},
	{"E12", "Ablation — truncate-at-first-failure vs drop-failed-classes repair", runE12},
	{"E13", "Ablation — local two-hop δ² color range vs global δ range", runE13},
	{"E14", "Extension — general-battery k-tolerant scheduling (paper's open problem)", runE14},
	{"E15", "Extension — scarcity-aware vs plain greedy partition extraction", runE15},
	{"E16", "Related work (§3) — one good dominating set, computed distributedly", runE16},
	{"E17", "Extension — centralized post-processing on top of the distributed schedules", runE17},
	{"E18", "Abstraction gap — the paper's duty-budget model vs battery-drain reality", runE18},
	{"E19", "Related work (§3) — asynchronous wake-up clustering without a global clock", runE19},
	{"E20", "Algorithm 3 against the exact k-tolerant optimum (small instances)", runE20},
	{"E21", "Robustness — Algorithm 1 under radio message loss", runE21},
	{"E22", "Tight optima via column generation — true LP ratios at mid-scale", runE22},
	{"E23", "Self-healing — static k-tolerance vs 1-tolerant + online repair under chaos", runE23},
	{"E24", "Live reconfiguration — overlap-planned transitions vs naive re-solve-and-swap under churn", runE24},
	{"E25", "Anytime refinement — lifetime vs move budget for tabu and annealing over the baselines", runE25},
	{"E26", "Sharded solve — stitched vs whole-graph lifetime and wall-clock on large UDG instances", runE26},
}

// IDs returns the experiment IDs in order.
func IDs() []string {
	ids := make([]string, len(list))
	for i, e := range list {
		ids[i] = e.ID
	}
	return ids
}

// Get looks up an experiment by ID (case-insensitive).
func Get(id string) (Experiment, bool) {
	for _, e := range list {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the experiment with the given ID. An unknown ID is an error.
func Run(id string, cfg Config) (*Table, error) {
	e, ok := Get(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	t := e.Run(cfg)
	t.ID, t.Title = e.ID, e.Title
	return t, nil
}

// mean is the arithmetic mean of a trial sample, summed in order. It
// panics on an empty sample: every table row averages at least one trial.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("experiments: mean of an empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string    { return fmt.Sprint(v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
