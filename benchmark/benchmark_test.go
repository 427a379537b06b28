package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/serve"
)

// stream renders every request of a round, priming first, as the bytes the
// server would receive.
func stream(t *testing.T, in *inputs) []byte {
	t.Helper()
	var buf bytes.Buffer
	ops, owner := sequence(in)
	for i, rq := range ops {
		body, err := io.ReadAll(rq.body())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %s client=%d\n", rq.method, rq.path, owner[i])
		buf.Write(body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			draw := func(seed uint64) []byte {
				in, err := w.gen(rng.New(seed), 3)
				if err != nil {
					t.Fatal(err)
				}
				return stream(t, in)
			}
			a, b, c := draw(1), draw(1), draw(2)
			if !bytes.Equal(a, b) {
				t.Error("same seed produced different request streams")
			}
			if bytes.Equal(a, c) {
				t.Error("seeds 1 and 2 produced identical request streams")
			}
		})
	}
}

func TestPatchChurnClientsDisjoint(t *testing.T) {
	w, _ := workloadByName("patch-churn")
	in, err := w.gen(rng.New(7), 30)
	if err != nil {
		t.Fatal(err)
	}
	var fps [clients]map[string]bool
	for c, ops := range in.clients {
		fps[c] = make(map[string]bool)
		for _, rq := range ops {
			if rq.method == "POST" {
				fps[c][rq.prob.fp] = true
			} else {
				fps[c][strings.TrimPrefix(rq.path, "/v1/schedule/")] = true
				fps[c][rq.fp] = true
			}
		}
	}
	for fp := range fps[0] {
		if fps[1][fp] {
			t.Fatalf("graph %s is used by both clients", fp)
		}
	}
}

func TestReplaySkipsRepeatedSolve(t *testing.T) {
	src := rng.New(3)
	g, _ := gen.RandomUDG(60, 1, 0.3, src)
	head, err := graphHead(g)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newPost(g, head, serve.Request{Algorithm: serve.AlgUniform, Battery: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPost(g, head, serve.Request{Algorithm: serve.AlgUniform, Battery: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer()
	for i, rq := range []*request{a, a, b, a, b} {
		if _, err := rp.serve(i+1, rq); err != nil {
			t.Fatal(err)
		}
	}
	solves := 0
	for _, s := range rp.tr.spans {
		if s.Name == "solver.solve" {
			solves++
		}
	}
	if solves != 2 {
		t.Fatalf("replay solved %d times for 2 distinct keys", solves)
	}
}

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONLint(t *testing.T) {
	spec := loadRepoSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen := make(map[string]bool)
	for _, wl := range spec.Workloads {
		if _, ok := workloadByName(wl.Name); !ok {
			t.Errorf("workload %q is not one the benchmark runs", wl.Name)
		}
		if !nameRE.MatchString(wl.Name) || seen[wl.Name] || wl.Why == "" {
			t.Errorf("workload %+v: bad or repeated name, or no reason", wl)
		}
		seen[wl.Name] = true
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range append(spec.EndToEnd, spec.PerLayer...) {
		e2e := i < len(spec.EndToEnd)
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %q: needs a unit and a direction", m.Name)
		}
		switch {
		case e2e && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
			t.Errorf("end-to-end metric %q: bound must be in (0, 0.25]", m.Name)
		case !e2e && m.Bound != nil:
			t.Errorf("per-layer metric %q has a bound", m.Name)
		case e2e:
			maxBound = max(maxBound, *m.Bound)
			if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
				setupBound = *m.Bound
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Error("setup_s (unit s, lower) must carry the largest end-to-end bound")
	}
	for _, p := range spec.Paths {
		if fi, err := os.Stat(filepath.Join("..", p)); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
}

// TestSmoke runs every workload for one small round in both modes and
// checks that each prints every metric BENCHMARK.json names, without
// errors.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	spec := loadRepoSpec(t)
	for _, wl := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			out := filepath.Join(t.TempDir(), "result.jsonl")
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", wl.Name, "-seed", "1", "-seconds", "0.05", "-rounds", "1",
				"-trace", strconv.Itoa(trace), "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", wl.Name, trace, code, stderr.String(), stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", wl.Name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 || len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%d: summary %+v", wl.Name, trace, last)
			}
			for _, m := range want {
				if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s missing or not in %s", wl.Name, trace, m.Name, m.Unit)
				}
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var full result
			if err := json.Unmarshal(b, &full); err != nil {
				t.Fatal(err)
			}
			if er, ok := full.Diagnostics["error_rate"]; !ok || er.Value != 0 {
				t.Errorf("%s trace=%d: error_rate %v", wl.Name, trace, er)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 100, 101, 99, 100}, "unchanged"},
		{[]float64{80, 81, 79, 80, 82}, "worse"},
		{[]float64{120, 121, 119, 120, 122}, "better"},
		{[]float64{60, 140, 100, 70, 130}, "unresolved"},
	} {
		if _, _, got := verdict(base, tc.b, true, 0.1); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
}
