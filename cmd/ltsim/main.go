// Command ltsim executes a cluster-lifetime schedule slot by slot on the
// energy simulator, optionally injecting faults (random node failures or a
// full chaos plan) and optionally running the self-healing runtime, and
// reports the achieved lifetime, coverage trace, and energy use. -alg takes
// one of uniform, general, ft, grid or auto (the algs list, which the flag
// help and its validation also use).
//
// Usage:
//
//	graphgen -family gnp -n 200 -p 0.08 | ltsim -alg uniform -b 4
//	ltsim -graph g.edges -alg ft -b 4 -k 2 -failures 10
//	ltsim -graph g.edges -alg general -bmax 6 -covtrace
//	ltsim -graph g.edges -alg uniform -b 4 -refine tabu -budget 50000
//	ltsim -graph g.edges -alg uniform -b 4 -chaos "crash=10,leak=5x2" -heal -loss 0.15
//	ltsim -graph g.edges -alg uniform -b 4 -trace run.jsonl -metrics -obs-addr 127.0.0.1:8135
//	ltsim -graph g.edges -alg uniform -b 4 -delta d.json -delta-at 3 -overlap 2 -wakeloss 0.5
//
// Observability: -trace FILE streams the typed per-slot event trace as JSONL
// (byte-identical across runs with the same seed), -metrics prints the
// aggregated counters after the run, and -obs-addr serves the live metrics
// snapshot as JSON over HTTP while the simulation runs.
//
// Reconfiguration: -delta FILE applies a JSON graph.Delta (the PATCH
// /v1/schedule payload format) at slot -delta-at through the live
// reconfiguration simulator — the planner computes an overlap transition
// (-overlap slots; 0 = naive re-solve-and-swap) and sleeping survivors miss
// the install with probability -wakeloss.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/budgetflag"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/reconfig"
	"repro/internal/rng"
	"repro/internal/sensim"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/solver"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ltsim:", err)
		os.Exit(1)
	}
}

// algs lists the algorithms -alg accepts.
var algs = []string{solver.NameUniform, solver.NameGeneral, solver.NameFT, solver.NameGrid, solver.NameAuto}

// flags collects the command-line configuration so validation is testable.
type flags struct {
	alg         string
	refine      string
	b           int
	bmax        int
	k           int
	failures    int
	loss        float64
	healing     bool
	chaos       string
	trace       string // JSONL event-trace output path ("" = off)
	metrics     bool   // print the aggregated metrics after the run
	obsAddr     string // serve the live metrics snapshot over HTTP ("" = off)
	delta       string // JSON graph.Delta to apply mid-run ("" = off)
	deltaAt     int    // slot at which the delta lands
	overlap     int    // overlap window for the planned transition
	wakeloss    float64
	shards      int    // partition-solve-stitch when > 1
	partitioner string // shard partitioner name
}

// validate rejects nonsensical flag combinations with actionable errors —
// historically several of these panicked deep inside the libraries.
func (f flags) validate() error {
	if !slices.Contains(algs, f.alg) {
		return fmt.Errorf("unknown algorithm %q (have %s)", f.alg, strings.Join(algs, ", "))
	}
	switch f.refine {
	case "", solver.NameTabu, solver.NameAnneal:
	default:
		return fmt.Errorf("unknown refiner %q (have %s)", f.refine,
			strings.Join(solver.RefinerNames(), ", "))
	}
	if f.b < 0 {
		return fmt.Errorf("-b %d: battery must be >= 0", f.b)
	}
	if f.bmax < 0 {
		return fmt.Errorf("-bmax %d: battery cap must be >= 0", f.bmax)
	}
	if f.k < 1 {
		return fmt.Errorf("-k %d: domination tolerance must be >= 1", f.k)
	}
	if f.failures < 0 {
		return fmt.Errorf("-failures %d: crash count must be >= 0", f.failures)
	}
	if f.failures > 0 && f.b == 0 && f.bmax == 0 {
		return fmt.Errorf("-failures %d with -b 0: a zero-battery network has no schedule to crash; give -b or -bmax", f.failures)
	}
	if f.loss < 0 || f.loss >= 1 {
		return fmt.Errorf("-loss %v: loss probability must be in [0, 1)", f.loss)
	}
	if f.loss > 0 && !f.healing {
		return fmt.Errorf("-loss degrades the patch-protocol radio and needs -heal")
	}
	if f.delta != "" && f.healing {
		return fmt.Errorf("-delta runs the reconfiguration simulator, -heal the self-healing runtime; pick one")
	}
	if f.deltaAt < 0 {
		return fmt.Errorf("-delta-at %d: the change slot must be >= 0", f.deltaAt)
	}
	if f.overlap < 0 {
		return fmt.Errorf("-overlap %d: the overlap window must be >= 0", f.overlap)
	}
	if f.wakeloss < 0 || f.wakeloss >= 1 {
		return fmt.Errorf("-wakeloss %v: wake-loss probability must be in [0, 1)", f.wakeloss)
	}
	if f.wakeloss > 0 && f.delta == "" {
		return fmt.Errorf("-wakeloss models missed schedule installs and needs -delta")
	}
	if f.shards < 0 {
		return fmt.Errorf("-shards %d: shard count must not be negative", f.shards)
	}
	if f.shards > 1 {
		switch f.partitioner {
		case "", "bfs":
		case "geom":
			return fmt.Errorf("-partitioner geom needs node coordinates, which edge-list input does not carry; use bfs")
		default:
			return fmt.Errorf("unknown partitioner %q (have %s)", f.partitioner,
				strings.Join(shard.Partitioners(), ", "))
		}
	}
	return nil
}

func run() error {
	graphPath := flag.String("graph", "-", "edge-list file (\"-\" = stdin)")
	var f flags
	flag.StringVar(&f.alg, "alg", solver.NameUniform, "algorithm: "+strings.Join(algs, "|"))
	flag.IntVar(&f.b, "b", 3, "uniform battery")
	flag.IntVar(&f.bmax, "bmax", 0, "random batteries in [1, bmax] (0 = uniform b)")
	flag.IntVar(&f.k, "k", 1, "domination tolerance")
	kConst := flag.Float64("K", 3, "color-range constant")
	seed := flag.Uint64("seed", 1, "random seed")
	tries := flag.Int("tries", 30, "WHP retry budget")
	flag.StringVar(&f.refine, "refine", "", "refinement solver run on -alg's schedule: "+
		strings.Join(solver.RefinerNames(), "|")+" (\"\" = off)")
	bf := budgetflag.Register(flag.CommandLine)
	flag.IntVar(&f.failures, "failures", 0, "random node crashes to inject")
	flag.StringVar(&f.chaos, "chaos", "", `chaos plan spec, e.g. "crash=10,blackout=2x3,leak=5x2,loss=0.1"`)
	flag.BoolVar(&f.healing, "heal", false, "run the self-healing runtime (patch → replan → degrade)")
	flag.Float64Var(&f.loss, "loss", 0, "patch-protocol radio loss probability (with -heal)")
	covtrace := flag.Bool("covtrace", false, "print the per-slot coverage trace")
	flag.StringVar(&f.trace, "trace", "", "write the typed event trace as JSONL to this file")
	flag.BoolVar(&f.metrics, "metrics", false, "print the aggregated metrics after the run")
	flag.StringVar(&f.obsAddr, "obs-addr", "", "serve the live metrics snapshot as JSON on this address (e.g. 127.0.0.1:8135)")
	flag.StringVar(&f.delta, "delta", "", "apply this JSON graph delta mid-run (reconfiguration simulator)")
	flag.IntVar(&f.deltaAt, "delta-at", 0, "slot at which the -delta lands")
	flag.IntVar(&f.overlap, "overlap", reconfig.DefaultOverlap, "overlap slots for the planned transition (0 = naive swap)")
	flag.Float64Var(&f.wakeloss, "wakeloss", 0, "probability a sleeping survivor misses the new schedule's install (with -delta)")
	flag.IntVar(&f.shards, "shards", 1, "partition into this many shards, solve concurrently, stitch with boundary repair (1 = whole graph)")
	flag.StringVar(&f.partitioner, "partitioner", "bfs", "shard partitioner: "+
		strings.Join(shard.Partitioners(), "|")+" (edge-list input supports bfs)")
	flag.Parse()

	if err := f.validate(); err != nil {
		return err
	}
	if err := bf.Validate(); err != nil {
		return err
	}

	var in io.Reader = os.Stdin
	if *graphPath != "-" {
		file, err := os.Open(*graphPath)
		if err != nil {
			return err
		}
		defer file.Close()
		in = file
	}
	g, hint, err := graph.ReadEdgeList(in)
	if err != nil {
		return err
	}

	src := rng.New(*seed)
	batteries := make([]int, g.N())
	for i := range batteries {
		if f.bmax > 0 {
			batteries[i] = 1 + src.Intn(f.bmax)
		} else {
			batteries[i] = f.b
		}
	}
	// The uniform algorithms schedule against the scalar -b even when -bmax
	// randomized the simulated batteries (the historical ltsim behavior);
	// only "general" consumes the per-node vector.
	budgets := batteries
	spec := solver.Spec{Name: f.alg, KConst: *kConst}
	scheduleK := 1
	switch f.alg {
	case solver.NameUniform:
		budgets = energy.Uniform(g, f.b)
	case solver.NameFT:
		budgets = energy.Uniform(g, f.b)
		scheduleK = f.k
	}
	if f.refine != "" {
		spec.Name, spec.Base = f.refine, f.alg
	}
	inst := instance.New(g, budgets).WithK(scheduleK).WithHint(instance.ParseHint(hint))
	opt := solver.Options{Tries: *tries, Src: src.Split()}
	bf.Apply(&opt, time.Now())
	var s *core.Schedule
	if f.shards > 1 {
		p, err := shard.ByName(f.partitioner, g, nil, f.shards, *seed)
		if err != nil {
			return err
		}
		solved, err := shard.SolveShards(inst, p, shard.Options{
			Spec: spec, Solver: opt, Seed: *seed, TransientPool: true,
		})
		if err != nil {
			return err
		}
		st, err := shard.Stitch(inst, p, solved, obs.Hooks{})
		if err != nil {
			return err
		}
		s = st.Schedule
		fmt.Printf("sharded solve: %d shards (%s), %d boundary repairs, %d replans\n",
			f.shards, f.partitioner, st.Repairs, st.Replans)
	} else {
		var err error
		if s, err = solver.Solve(inst, spec, opt); err != nil {
			return err
		}
	}

	horizon := max(1, s.Lifetime())
	plan := chaos.Plan{Crashes: energy.RandomFailures(g, f.failures, horizon, src.Split())}
	if f.chaos != "" {
		spec, err := chaos.ParseSpec(f.chaos, g, horizon, src.Split())
		if err != nil {
			return err
		}
		plan = chaos.Merge(plan, spec)
	}

	// Observability: assemble the tracer fan-out (JSONL file, metrics
	// registry) and optionally serve the live snapshot over HTTP.
	var tracers []obs.Tracer
	var jsonl *obs.JSONL
	var traceBuf *bufio.Writer
	var traceFile *os.File
	if f.trace != "" {
		tf, err := os.Create(f.trace)
		if err != nil {
			return err
		}
		traceFile = tf
		traceBuf = bufio.NewWriter(tf)
		jsonl = obs.NewJSONL(traceBuf)
		tracers = append(tracers, jsonl)
	}
	var reg *obs.Registry
	if f.metrics || f.obsAddr != "" {
		reg = obs.NewRegistry()
		tracers = append(tracers, obs.NewMetricsSink(reg))
	}
	hooks := obs.Hooks{Trace: obs.Tee(tracers...)}
	if f.obsAddr != "" {
		// The serve package owns the HTTP lifecycle: same mux shape as
		// ltserve (/healthz, /metrics, plus the legacy root snapshot) and a
		// graceful stop instead of an abandoned listener.
		hs, err := serve.StartHTTP(f.obsAddr, serve.ObsMux(reg))
		if err != nil {
			return fmt.Errorf("-obs-addr %s: %w", f.obsAddr, err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			hs.Stop(ctx) //nolint:errcheck // best-effort on exit
		}()
		fmt.Printf("obs: serving metrics snapshot at http://%s/\n", hs.Addr())
	}

	enet := energy.NewNetwork(g, batteries)
	algLabel := f.alg
	if f.alg == solver.NameAuto {
		// Probe with a fresh auto spec \u2014 the solve spec may have been
		// rewritten by -refine \u2014 so the label reports the dispatch target.
		if _, eff, err := solver.Effective(inst, solver.Spec{Name: solver.NameAuto, KConst: *kConst}); err == nil {
			algLabel = "auto\u2192" + eff.Name
		}
	}
	if f.refine != "" {
		algLabel = algLabel + "+" + f.refine
	}
	fmt.Printf("graph: %v\n", g)
	fmt.Printf("schedule: %s, nominal lifetime %d\n", algLabel, s.Lifetime())

	var coverage []float64
	if f.delta != "" {
		d, err := readDelta(f.delta)
		if err != nil {
			return err
		}
		res, err := reconfig.Simulate(g, s, batteries, []reconfig.Change{{At: f.deltaAt, Delta: d}},
			reconfig.SimOptions{
				K: f.k, Overlap: f.overlap, Solver: f.alg,
				Tries: *tries, Seed: *seed, WakeLoss: f.wakeloss,
				Chaos: plan, Hooks: hooks,
			})
		if err != nil {
			return err
		}
		coverage = res.Coverage
		report(res.Deaths, res.AchievedLifetime, res.FirstViolation)
		fmt.Printf("reconfig: nominal lifetime %d across %d transitions (%d degraded, %d violated)\n",
			res.ScheduleLifetime, res.Reconfigs, res.DegradedTransitions, res.ViolatedTransitions)
		fmt.Printf("reconfig: %d wake misses; covered %d of %d simulated slots\n",
			res.WakeMisses, res.CoveredSlots, res.Slots)
		fmt.Printf("energy spent: %d units (%d on overlap windows)\n",
			res.EnergySpent, res.OverlapEnergy)
	} else if f.healing {
		healSrc := src.Split()
		if f.loss > 0 && plan.Radio == nil {
			// -loss gives the patch protocol a flat-loss radio unless the
			// -chaos spec names one.
			plan.Radio = chaos.FlatLoss(f.loss, healSrc.Split()).Radio
		}
		res, err := heal.Run(enet, s, heal.Options{K: f.k, Chaos: plan, Hooks: hooks})
		if err != nil {
			return err
		}
		coverage = res.Coverage
		report(res.Deaths, res.AchievedLifetime, res.FirstViolation)
		fmt.Printf("healing: %d patch attempts (%d retries), %d slots patched, %d recruits\n",
			res.PatchAttempts, res.Retries, res.PatchSuccesses, res.Recruited)
		fmt.Printf("healing: %d replans, %d degraded slots; protocol %d msgs / %d rounds / %d dropped\n",
			res.Replans, res.DegradedSlots,
			res.Protocol.Messages, res.Protocol.Rounds, res.Protocol.Dropped)
		fmt.Printf("energy spent: %d units\n", res.EnergySpent)
	} else {
		res := sensim.Run(enet, s, sensim.Options{K: f.k, Chaos: plan, Hooks: hooks})
		coverage = res.Coverage
		report(res.Deaths, res.AchievedLifetime, res.FirstViolation)
		fmt.Printf("energy spent: %d units; sensor reports delivered: %d\n",
			res.EnergySpent, res.ReportsDelivered)
	}
	if *covtrace {
		for t, c := range coverage {
			fmt.Printf("slot %3d: coverage %.3f\n", t, c)
		}
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			return fmt.Errorf("-trace %s: %w", f.trace, err)
		}
		if err := traceBuf.Flush(); err != nil {
			return fmt.Errorf("-trace %s: %w", f.trace, err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("-trace %s: %w", f.trace, err)
		}
		fmt.Printf("trace written to %s\n", f.trace)
	}
	if f.metrics {
		fmt.Println("metrics:")
		if err := reg.WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// readDelta parses a JSON graph.Delta file (the PATCH payload's delta
// object), rejecting unknown fields so a typoed key fails loudly instead of
// silently simulating the wrong change.
func readDelta(path string) (graph.Delta, error) {
	var d graph.Delta
	file, err := os.Open(path)
	if err != nil {
		return d, err
	}
	defer file.Close()
	dec := json.NewDecoder(file)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return d, fmt.Errorf("-delta %s: %w", path, err)
	}
	return d, nil
}

// report prints the fault and lifetime summary shared by both runtimes.
func report(deaths, achieved, firstViolation int) {
	fmt.Printf("deaths: %d\n", deaths)
	fmt.Printf("achieved lifetime: %d slots\n", achieved)
	if firstViolation >= 0 {
		fmt.Printf("first coverage violation: slot %d\n", firstViolation)
	} else {
		fmt.Printf("first coverage violation: none\n")
	}
}
