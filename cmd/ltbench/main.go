// Command ltbench runs the reproduction experiments of DESIGN.md and prints
// their tables. By default it runs everything at full scale; use -quick for
// a fast smoke pass and -run to select specific experiments, and
// -cpuprofile/-memprofile to profile the experiment runs.
//
// Usage:
//
//	ltbench [-run E1,E7] [-seed 42] [-trials 10] [-quick] [-trace e.jsonl]
//	ltbench -run E25 -budget 50000          (refinement lifetime-vs-budget curve)
//	ltbench -run E26 -cpuprofile cpu.pprof [-memprofile mem.pprof]
//	timeout 2m ltbench                      (bound the wall clock; -deadline is rejected)
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

// run is main minus os.Exit, so deferred profile writers actually flush.
func run() int {
	runExps := flag.String("run", "all", "comma-separated experiment IDs (e.g. E1,E7) or \"all\"")
	seed := flag.Uint64("seed", 42, "root random seed")
	trials := flag.Int("trials", 0, "trials per data point (0 = experiment default)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	list := flag.Bool("list", false, "list available experiments and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	traceOut := flag.String("trace", "", "write experiment trial/reconfig events as JSONL to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	budget := flag.Int("budget", 0, "refinement iteration budget for tabu/anneal solvers (0 = solver default)")
	flag.Func("deadline", "not supported; bound the wall clock with timeout(1)", func(string) error {
		return errors.New("experiments run to completion; bound the wall clock with timeout(1), e.g. timeout 2m ltbench ...")
	})
	flag.Parse()
	if *budget < 0 {
		fmt.Fprintf(os.Stderr, "ltbench: -budget %d must be >= 0 (0 = solver default)\n", *budget)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ltbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ltbench:", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Get(id)
			fmt.Printf("%-4s %s\n", id, e.Title)
		}
		return 0
	}

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Quick: *quick, Budget: *budget}
	var traceClose func() error
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltbench:", err)
			return 1
		}
		buf := bufio.NewWriter(tf)
		jsonl := obs.NewJSONL(buf)
		cfg.Trace = jsonl
		traceClose = func() error {
			if err := jsonl.Err(); err != nil {
				return err
			}
			if err := buf.Flush(); err != nil {
				return err
			}
			return tf.Close()
		}
	}
	var ids []string
	if strings.EqualFold(*runExps, "all") {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*runExps, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	for i, id := range ids {
		tab, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltbench:", err)
			return 1
		}
		if i > 0 {
			fmt.Println()
		}
		var rerr error
		if *csv {
			fmt.Printf("# %s: %s\n", tab.ID, tab.Title)
			rerr = tab.WriteCSV(os.Stdout)
		} else {
			rerr = tab.Render(os.Stdout)
		}
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "ltbench:", rerr)
			return 1
		}
	}
	if traceClose != nil {
		if err := traceClose(); err != nil {
			fmt.Fprintf(os.Stderr, "ltbench: -trace %s: %v\n", *traceOut, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
	}
	return 0
}
