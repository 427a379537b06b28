// Command ltserve is the lifetime-scheduling service: it serves the
// internal/serve HTTP API — POST a graph with budgets and algorithm
// parameters, get back a feasible schedule (or a 202 and a job to poll) —
// with a bounded worker pool, request coalescing, an LRU result cache,
// explicit backpressure, and /healthz + /metrics on the same port.
//
// Usage:
//
//	ltserve -addr 127.0.0.1:8136
//	ltserve -addr :8136 -workers 4 -queue 128 -timeout 10s
//	ltserve -addr 127.0.0.1:0 -ready-file ltserve.addr   # CI: port in a file
//	ltserve -addr :8136 -fault "slow=0.1:50ms,fail=0.01" -fault-seed 7
//
// The process runs until SIGTERM or SIGINT, then drains: admission flips to
// 503 immediately, accepted jobs finish (bounded by -drain-timeout), and the
// process exits 0 on a clean drain. docs/SERVICE.md documents the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/budgetflag"
	"repro/internal/chaos"
	"repro/internal/rng"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ltserve:", err)
		os.Exit(1)
	}
}

// flags collects the command-line configuration so validation is testable.
type flags struct {
	addr         string
	workers      int
	queue        int
	inflight     int
	cacheSize    int
	timeout      time.Duration
	drainTimeout time.Duration
	maxNodes     int
	raceWidth    int
	overlap      int
	fault        string
	faultSeed    uint64
	readyFile    string
	budget       *budgetflag.Flags
}

// validate rejects nonsensical flag combinations with actionable errors.
func (f flags) validate() error {
	if f.addr == "" {
		return errors.New("-addr must not be empty (use :0 for an ephemeral port)")
	}
	if f.workers < 0 {
		return fmt.Errorf("-workers %d: pool size must be >= 0 (0 = GOMAXPROCS)", f.workers)
	}
	if f.queue < 0 {
		return fmt.Errorf("-queue %d: queue depth must be >= 0 (0 = default)", f.queue)
	}
	if f.inflight < 0 {
		return fmt.Errorf("-inflight %d: in-flight cap must be >= 0 (0 = queue+workers)", f.inflight)
	}
	if f.cacheSize < 0 {
		return fmt.Errorf("-cache %d: cache size must be >= 0 (0 = default)", f.cacheSize)
	}
	if f.timeout < 0 {
		return fmt.Errorf("-timeout %v: default deadline must be >= 0", f.timeout)
	}
	if f.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout %v: drain bound must be > 0", f.drainTimeout)
	}
	if f.maxNodes < 0 {
		return fmt.Errorf("-max-nodes %d: node cap must be >= 0 (0 = default)", f.maxNodes)
	}
	if f.raceWidth < 0 {
		return fmt.Errorf("-race-width %d: race width must be >= 0 (0 or 1 = sequential)", f.raceWidth)
	}
	if f.overlap < 0 {
		return fmt.Errorf("-overlap %d: reconfiguration overlap must be >= 0 (0 = default)", f.overlap)
	}
	if _, err := chaos.ParseWorkerFault(f.fault, rng.New(1)); err != nil {
		return fmt.Errorf("-fault: %w", err)
	}
	return f.budget.Validate()
}

// config builds the serve.Config, including the optional chaos fault.
func (f flags) config() (serve.Config, error) {
	cfg := serve.Config{
		Workers:        f.workers,
		QueueDepth:     f.queue,
		MaxInFlight:    f.inflight,
		CacheSize:      f.cacheSize,
		DefaultTimeout: f.timeout,
		MaxNodes:       f.maxNodes,
		RaceWidth:      f.raceWidth,
		DefaultOverlap: f.overlap,
		// The unified budget contract: -budget and -deadline set the
		// server-side defaults a request gets when it omits budget /
		// time_budget_ms.
		DefaultBudget:     f.budget.Budget,
		DefaultTimeBudget: f.budget.Deadline,
	}
	wf, err := chaos.ParseWorkerFault(f.fault, rng.New(f.faultSeed))
	if err != nil {
		return cfg, fmt.Errorf("-fault: %w", err)
	}
	if wf != nil {
		cfg.Fault = wf
	}
	return cfg, nil
}

// newFlagSet declares the flags into f; a FlagSet (rather than the global
// flag registry) keeps parsing testable.
func newFlagSet(f *flags) *flag.FlagSet {
	fs := flag.NewFlagSet("ltserve", flag.ContinueOnError)
	fs.StringVar(&f.addr, "addr", "127.0.0.1:8136", `listen address (":0" picks a free port)`)
	fs.IntVar(&f.workers, "workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	fs.IntVar(&f.queue, "queue", 0, "job-queue depth (0 = default 64)")
	fs.IntVar(&f.inflight, "inflight", 0, "max jobs admitted but unfinished (0 = queue+workers)")
	fs.IntVar(&f.cacheSize, "cache", 0, "LRU result-cache entries (0 = default 256)")
	fs.DurationVar(&f.timeout, "timeout", 0, "default per-request deadline (0 = 30s)")
	fs.DurationVar(&f.drainTimeout, "drain-timeout", 30*time.Second, "max wait for accepted jobs on shutdown")
	fs.IntVar(&f.maxNodes, "max-nodes", 0, "largest accepted graph (0 = default 1<<20)")
	fs.IntVar(&f.raceWidth, "race-width", 1, "seeded solver attempts raced per schedule job (<= 1 = sequential)")
	fs.IntVar(&f.overlap, "overlap", 0, "default overlap slots for PATCH reconfigurations (0 = built-in default)")
	fs.StringVar(&f.fault, "fault", "", `chaos worker fault, e.g. "slow=0.1:50ms,fail=0.01" ("" = off)`)
	fs.Uint64Var(&f.faultSeed, "fault-seed", 1, "seed for the chaos worker fault")
	fs.StringVar(&f.readyFile, "ready-file", "", "write the bound address to this file once listening")
	f.budget = budgetflag.Register(fs)
	return fs
}

func run() error {
	var f flags
	fs := newFlagSet(&f)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if err := f.validate(); err != nil {
		return err
	}
	cfg, err := f.config()
	if err != nil {
		return err
	}

	s := serve.New(cfg)
	hs, err := serve.StartHTTP(f.addr, s.Handler())
	if err != nil {
		return err
	}
	fmt.Printf("ltserve: listening on http://%s (healthz, metrics, v1/schedule, v1/schedule/{fp})\n", hs.Addr())
	if f.readyFile != "" {
		// Written after the listener is bound, so a watcher that sees the
		// file can immediately connect — the CI smoke test relies on this.
		if err := os.WriteFile(f.readyFile, []byte(hs.Addr()+"\n"), 0o644); err != nil {
			return fmt.Errorf("-ready-file: %w", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("ltserve: %v received, draining (timeout %v)\n", got, f.drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), f.drainTimeout)
	defer cancel()
	// Order matters: drain the service first so new requests see 503 with a
	// live HTTP layer, then stop the listener once accepted work is done.
	if err := s.Shutdown(ctx); err != nil {
		hs.Stop(ctx) //nolint:errcheck // already failing; report the drain error
		return fmt.Errorf("drain: %w", err)
	}
	if err := hs.Stop(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Println("ltserve: drained cleanly")
	return nil
}
