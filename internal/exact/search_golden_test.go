package exact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/domset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// exactSearchGolden is the SHA-256 of TestExactSearchGolden's transcript.
// E1's optimum, E6's and E20's ratios, E7's Fujita extractor and E22's
// column generation all read these three searches, so a change that moves
// any set they return, or the order MinimalDominatingSets lists them in,
// moves this digest.
const exactSearchGolden = "89d859edf6024706d5a9ff7b795ba4368374463b8c8af94411033ad2c500a989"

// TestExactSearchGolden pins the outputs of domset.MinimumExact,
// domset.MinimumWeightExact and MinimalDominatingSets over a fixed corpus
// with n from 0 to 24: GNP graphs, UDGs, grids up to 4×6, rings, paths,
// stars and FujitaTrap(2..4). MinimumExact runs with no restriction and
// with three random allowed masks (some infeasible); MinimumWeightExact at
// k = 1..3 with float weights and with small integer weights, which tie;
// MinimalDominatingSets at k = 1..3 for n ≤ 16.
func TestExactSearchGolden(t *testing.T) {
	type entry struct {
		name string
		g    *graph.Graph
	}
	src := rng.New(33)
	corpus := []entry{{"empty", graph.NewFromEdges(0, nil)}}
	for n := 1; n <= 24; n++ {
		for _, p := range []float64{0.15, 0.3, 0.5} {
			corpus = append(corpus, entry{fmt.Sprintf("gnp%d/%.2f", n, p), gen.GNP(n, p, src.Split())})
		}
	}
	for _, n := range []int{6, 9, 12, 15, 18, 21, 24} {
		g, _ := gen.RandomUDG(n, 1, 0.4, src.Split())
		corpus = append(corpus, entry{fmt.Sprintf("udg%d", n), g})
	}
	for r := 1; r <= 4; r++ {
		for c := r; c <= 6; c++ {
			corpus = append(corpus, entry{fmt.Sprintf("grid%dx%d", r, c), gen.Grid(r, c)})
		}
	}
	for _, n := range []int{3, 7, 12, 19, 24} {
		corpus = append(corpus,
			entry{fmt.Sprintf("ring%d", n), gen.Ring(n)},
			entry{fmt.Sprintf("path%d", n), gen.Path(n)},
			entry{fmt.Sprintf("star%d", n), gen.Star(n)})
	}
	for k := 2; k <= 4; k++ {
		g, _ := gen.FujitaTrap(k)
		corpus = append(corpus, entry{fmt.Sprintf("fujita%d", k), g})
	}

	h := sha256.New()
	for _, e := range corpus {
		g, n := e.g, e.g.N()
		fmt.Fprintf(h, "%s min: %v\n", e.name, domset.MinimumExact(g, nil))
		for m := 0; m < 3; m++ {
			allowed := make([]bool, n)
			for v := range allowed {
				allowed[v] = src.Float64() < 0.75
			}
			fmt.Fprintf(h, "%s min allowed=%v: %v\n", e.name, allowed, domset.MinimumExact(g, allowed))
		}
		float, ints := make([]float64, n), make([]float64, n)
		for v := 0; v < n; v++ {
			float[v], ints[v] = src.Float64(), float64(src.Intn(3))
		}
		for k := 1; k <= 3; k++ {
			for _, w := range [][]float64{float, ints} {
				set, weight := domset.MinimumWeightExact(g, w, k)
				fmt.Fprintf(h, "%s weight k=%d w=%v: %v %v\n", e.name, k, w, set, weight)
			}
			if n <= 16 {
				fmt.Fprintf(h, "%s minimal k=%d: %v\n", e.name, k, MinimalDominatingSets(g, k))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exactSearchGolden {
		t.Errorf("exact search transcript SHA-256 = %s, want %s (%d graphs)", got, exactSearchGolden, len(corpus))
	}
}
