package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Paths     []string     `json:"paths"`
	Workloads []specLoad   `json:"workloads"`
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads the end-to-end results of an -out file, by workload.
func loadResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Header.Trace {
			out[r.Header.Workload] = append(out[r.Header.Workload], r)
		}
	}
	return out, sc.Err()
}

// verdict compares B against A for one metric. worse is B's median change
// in the metric's bad direction, as a share of A's median; spread is the
// wider of the two sides' quartile distances over their medians.
func verdict(a, b []float64, higherBetter bool, bound float64) (worse, spread float64, v string) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worse = ratio(bm-am, math.Abs(am))
	if higherBetter {
		worse = -worse
	}
	spread = math.Max(ratio(aq3-aq1, math.Abs(am)), ratio(bq3-bq1, math.Abs(bm)))
	// beats reports whether every x reads better than every y.
	beats := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if (higherBetter && x <= y) || (!higherBetter && x >= y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case spread > bound && beats(b, a):
		return worse, spread, "better"
	case spread > bound && beats(a, b) && worse > bound:
		return worse, spread, "worse"
	case spread > bound:
		return worse, spread, "unresolved"
	case worse > bound:
		return worse, spread, "worse"
	case -worse > bound:
		return worse, spread, "better"
	}
	return worse, spread, "unchanged"
}

// runCompare prints, per workload and end-to-end metric, both sides'
// medians and quartiles, their ratio and a verdict under the metric's
// bound. It fails when any metric is worse.
func runCompare(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	var a, b map[string][]result
	if err == nil {
		a, err = loadResults(pathA)
	}
	if err == nil {
		b, err = loadResults(pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareSets(spec, a, b, stdout)
}

func compareSets(spec *benchSpec, a, b map[string][]result, w io.Writer) int {
	values := func(rs []result, name string, diag bool) []float64 {
		var out []float64
		for _, r := range rs {
			m := r.Metrics
			if diag {
				m = r.Diagnostics
			}
			if v, ok := m[name]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	side := func(xs []float64) string {
		q1, q2, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", q2, q1, q3, len(xs))
	}
	worseAny := false
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%s: missing runs (A %d, B %d)\n", wl.Name, len(ra), len(rb))
			continue
		}
		fmt.Fprintf(w, "%s  host.calib_ms A %s  B %s\n", wl.Name,
			side(values(ra, "host.calib_ms", true)), side(values(rb, "host.calib_ms", true)))
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name, false), values(rb, m.Name, false)
			if len(va) == 0 || len(vb) == 0 || m.Bound == nil {
				fmt.Fprintf(w, "  %-18s missing\n", m.Name)
				continue
			}
			_, am, _ := quartiles(va)
			_, bm, _ := quartiles(vb)
			worse, spread, v := verdict(va, vb, m.Better == "higher", *m.Bound)
			worseAny = worseAny || v == "worse"
			fmt.Fprintf(w, "  %-18s A %s  B %s  B/A %.4f  worse %+.2f%% spread %.2f%% bound %.2f%%  %s\n",
				m.Name, side(va), side(vb), ratio(bm, am), 100*worse, 100*spread, 100**m.Bound, v)
		}
		if va, vb := values(ra, "latency_p90_ms", true), values(rb, "latency_p90_ms", true); len(va) > 0 && len(vb) > 0 {
			_, am, _ := quartiles(va)
			_, bm, _ := quartiles(vb)
			fmt.Fprintf(w, "  %-18s A %s  B %s  B/A %.4f  not gated\n", "latency_p90_ms", side(va), side(vb), ratio(bm, am))
		}
	}
	if worseAny {
		return 1
	}
	return 0
}
