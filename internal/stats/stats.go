// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics with confidence intervals and medians.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes the Summary of xs. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean: 1.96·std/√n. Zero for samples of size < 2.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// String renders "mean ± ci [min, max]".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f]", s.Mean, s.CI95(), s.Min, s.Max)
}
