// Command benchmark measures the lifetime-scheduling service end to end:
// POST /v1/schedule and PATCH /v1/schedule/{fp} served by a fresh
// in-process server per round, driven by two closed-loop clients over
// loopback, with every returned schedule checked for feasibility and
// against the paper's lifetime upper bounds.
//
//	go run . -workload hit-heavy -seed 1 [-seconds 20] [-rounds 5] [-trace 0|1] [-spans spans.json] [-out results.jsonl]
//	go run . -compare A.jsonl B.jsonl [-spec ../BENCHMARK.json]
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it also
// replays round 0 one request at a time with per-stage spans and prints the
// per-layer metrics. The last line of standard output is a JSON summary.
// README.md describes the workloads, metrics and protocol.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/rng"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// header describes the run and the host it ran on.
type header struct {
	Workload       string    `json:"workload"`
	Seed           uint64    `json:"seed"`
	Rounds         int       `json:"rounds"`
	Seconds        float64   `json:"seconds"`
	TimedPerClient int       `json:"timed_per_client"`
	Trace          bool      `json:"trace"`
	CPU            string    `json:"cpu"`
	NProc          int       `json:"nproc"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	GoVersion      string    `json:"go_version"`
	Start          time.Time `json:"start"`
	CalibBeforeMS  float64   `json:"calib_before_ms"`
	CalibAfterMS   float64   `json:"calib_after_ms"`
}

// result is one invocation's full record, the line -out appends.
type result struct {
	Header      header            `json:"header"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Diagnostics map[string]metric `json:"diagnostics"`
	Errors      []string          `json:"errors,omitempty"`
}

// report collects metrics in print order.
type report struct {
	names []string
	m     map[string]metric
}

func (r *report) add(name string, v float64, unit string) {
	if r.m == nil {
		r.m = make(map[string]metric)
	}
	r.names = append(r.names, name)
	r.m[name] = metric{Value: v, Unit: unit}
}

func (r *report) print(w io.Writer) {
	for _, name := range r.names {
		fmt.Fprintf(w, "%s %.6g %s\n", name, r.m[name].Value, r.m[name].Unit)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hit-heavy, solve-heavy, shard-large or patch-churn")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "nominal measured seconds; sizes the timed requests per round")
	rounds := fs.Int("rounds", 5, "rounds, each on a fresh server")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced replay instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the replay's spans to this file")
	out := fs.String("out", "", "append the full result as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments")
	spec := fs.String("spec", "BENCHMARK.json", "with -compare, the file holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.jsonl B.jsonl")
			return 2
		}
		return runCompare(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() != 0 || *rounds < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: -workload NAME -seed N [-seconds S] [-rounds R] [-trace 0|1]; workloads: %s\n", workloadNames())
		return 2
	}
	hdr := header{
		Workload: w.name, Seed: *seed, Rounds: *rounds, Seconds: *seconds, Trace: *trace == 1,
		TimedPerClient: max(1, int(math.Round(w.rate**seconds/float64(*rounds)/clients))),
		CPU:            cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Start: time.Now().UTC(),
	}
	res, err := measure(w, &hdr, *spans, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s seed=%d rounds=%d timed/client/round=%d trace=%t\n",
		hdr.Workload, hdr.Seed, hdr.Rounds, hdr.TimedPerClient, hdr.Trace)
	fmt.Fprintf(stdout, "# cpu=%q nproc=%d gomaxprocs=%d %s start=%s\n",
		hdr.CPU, hdr.NProc, hdr.GOMAXPROCS, hdr.GoVersion, hdr.Start.Format(time.RFC3339))
	res.metrics.print(stdout)
	res.diags.print(stdout)
	for _, e := range res.errs {
		fmt.Fprintf(stdout, "# error: %v\n", e)
	}
	full := result{
		Header: hdr, Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: res.metrics.m, Diagnostics: res.diags.m,
	}
	for _, e := range res.errs {
		full.Errors = append(full.Errors, e.Error())
	}
	if *out != "" {
		if err := appendJSONLine(*out, full); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{full.Correct, full.Attempted, full.Failed, full.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !full.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// measured is what one invocation reports.
type measured struct {
	metrics, diags    report
	attempted, failed int
	errs              []error
}

// measure runs the e2e rounds and, in trace mode, the traced replay, with
// the host calibration before and after.
func measure(w *workload, hdr *header, spansPath string, progress io.Writer) (*measured, error) {
	hdr.CalibBeforeMS = calibrate()
	// In trace mode one e2e round, sized as in an e2e run, supplies the
	// server counters; the replay supplies the rest.
	if hdr.Trace {
		hdr.Rounds = 1
	}
	var rs []*roundStats
	for r := range hdr.Rounds {
		st, err := runRound(w, hdr.Seed, hdr.TimedPerClient)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		fmt.Fprintf(progress, "%s round %d/%d: setup %.2fs, %d timed requests in %.2fs, %d failed\n",
			w.name, r+1, hdr.Rounds, st.setupS, st.timed, st.windowS, st.failed)
		rs = append(rs, st)
	}
	m := &measured{}
	for _, st := range rs {
		m.attempted += st.attempted
		m.failed += st.failed
		m.errs = append(m.errs, st.errs...)
	}
	if hdr.Trace {
		in, err := w.gen(rng.New(hdr.Seed), hdr.TimedPerClient)
		if err != nil {
			return nil, err
		}
		ts, err := runTrace(in, spansPath, hdr)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		m.attempted += ts.attempted
		m.failed += ts.failed
		m.errs = append(m.errs, ts.errs...)
		layerMetrics(&m.metrics, rs, ts)
		m.diags.add("replay.request_ms", ts.replayMS, "ms")
		m.diags.add("http.request_ms", ts.httpMS, "ms")
	} else {
		e2eMetrics(&m.metrics, rs)
		// The tail is printed and recorded but not gated: on a shared 2-vCPU
		// host its run-to-run spread reaches the largest bound allowed.
		m.diags.add("latency_p90_ms", percentile(pooled(rs), 90), "ms")
	}
	hdr.CalibAfterMS = calibrate()
	m.diags.add("error_rate", ratio(float64(m.failed), float64(m.attempted)), "ratio")
	m.diags.add("samples", float64(len(pooled(rs))), "count")
	var sent, timed float64
	var cpu []float64
	for _, st := range rs {
		sent += float64(st.sentBytes)
		timed += float64(st.timed)
		cpu = append(cpu, 1e3*st.cpuS/float64(st.timed))
	}
	m.diags.add("request_kb_mean", ratio(sent, timed)/1e3, "kB")
	m.diags.add("cpu_ms_per_req", median(cpu), "ms")
	m.diags.add("host.calib_ms", (hdr.CalibBeforeMS+hdr.CalibAfterMS)/2, "ms")
	if len(m.errs) > 5 {
		m.errs = m.errs[:5]
	}
	return m, nil
}

func pooled(rs []*roundStats) []float64 {
	var lat []float64
	for _, st := range rs {
		lat = append(lat, st.latencies...)
	}
	return lat
}

// e2eMetrics: throughput, setup, allocation and quality are medians over
// rounds; the latency percentile is over the pooled timed samples.
func e2eMetrics(r *report, rs []*roundStats) {
	var rps, alloc, setup, quality []float64
	for _, st := range rs {
		rps = append(rps, float64(st.timedOK)/st.windowS)
		alloc = append(alloc, st.allocB/float64(st.timed)/1e6)
		setup = append(setup, st.setupS)
		quality = append(quality, st.quality)
	}
	r.add("throughput_rps", median(rps), "1/s")
	r.add("latency_p50_ms", percentile(pooled(rs), 50), "ms")
	r.add("lifetime_ratio", median(quality), "ratio")
	r.add("alloc_mb_per_req", median(alloc), "MB")
	r.add("rss_peak_mb", peakRSSMB(), "MB")
	r.add("setup_s", median(setup), "s")
}

// layerMetrics: the replay's stage costs, then the server counters summed
// over the e2e rounds.
func layerMetrics(r *report, rs []*roundStats, ts *traceStats) {
	for _, name := range []string{"serve.decode", "graph.build", "solver.validate", "graph.key_hash", "core.encode", checkSpan} {
		r.add(name+"_ms", ts.stageMS[name], "ms")
	}
	r.add("http.unattributed_ms", ts.httpMS-ts.replayMS, "ms")
	for _, name := range stageNames {
		r.add(name+"_share", ts.stageShare[name], "share")
	}

	sum := make(map[string]float64)
	var timed, gc float64
	for _, st := range rs {
		for name, sn := range st.counters {
			sum[name] += sn.Value
			if sn.Kind == "histogram" {
				sum[name+".sum"] += sn.Sum
				sum[name+".count"] += float64(sn.Count)
			}
		}
		timed += float64(st.timed)
		gc += st.gcCycles
	}
	jobs := sum["serve.solver_sequential"] + sum["serve.solver_raced"]
	shardSolves := sum["serve.shard_solves"] + sum["serve.shard_cache_hits"]
	r.add("serve.cache_hit_ratio", ratio(sum["serve.cache_hits"], sum["serve.requests"]), "ratio")
	r.add("serve.coalesced_ratio", ratio(sum["serve.coalesced"], sum["serve.requests"]), "ratio")
	r.add("serve.rejected", sum["serve.rejected_queue_full"]+sum["serve.rejected_inflight"]+sum["serve.rejected_draining"], "count")
	r.add("serve.queue_wait_ms_mean", ratio(sum["serve.queue_wait_ms.sum"], sum["serve.queue_wait_ms.count"]), "ms")
	r.add("serve.solve_ms_mean", ratio(sum["serve.solve_ms.sum"], sum["serve.solve_ms.count"]), "ms")
	r.add("solver.attempts_per_solve", ratio(sum["serve.solver_attempts"], jobs), "1/solve")
	r.add("shard.cache_hit_ratio", ratio(sum["serve.shard_cache_hits"], shardSolves), "ratio")
	r.add("shard.repairs_per_req", ratio(sum["serve.shard_repairs"], jobs), "1/req")
	r.add("shard.replans_per_req", ratio(sum["serve.shard_replans"], jobs), "1/req")
	r.add("reconfig.degraded_ratio", ratio(sum["serve.reconfig_degraded"], sum["serve.reconfigs"]), "ratio")
	r.add("reconfig.invalidated_per_patch", ratio(sum["serve.invalidated"], sum["serve.reconfigs"]), "1/patch")
	r.add("reconfig.overlap_energy_per_patch", ratio(sum["serve.overlap_energy"], sum["serve.reconfigs"]), "1/patch")
	r.add("runtime.gc_cycles_per_req", ratio(gc, timed), "1/req")
}

// calibrate times a fixed CPU kernel, SHA-256 over 32 MiB four times on one
// goroutine, so results from a slow host can be recognised.
func calibrate() float64 {
	buf := make([]byte, 32<<20)
	start := time.Now()
	for range 4 {
		sha256.Sum256(buf)
	}
	return msSince(start)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return errors.Join(err, f.Close())
}
