package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almost(s.Mean, 3) || !almost(s.Min, 1) || !almost(s.Max, 5) {
		t.Fatalf("summary = %+v", s)
	}
	if !almost(s.Median, 3) {
		t.Fatalf("median = %v, want 3", s.Median)
	}
	// Sample std of 1..5 is sqrt(2.5).
	if !almost(s.Std, math.Sqrt(2.5)) {
		t.Fatalf("std = %v, want %v", s.Std, math.Sqrt(2.5))
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if !almost(s.Median, 2.5) {
		t.Fatalf("median = %v, want 2.5", s.Median)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Std != 0 || s.CI95() != 0 || s.Median != 7 {
		t.Fatalf("singleton summary = %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample did not panic")
		}
	}()
	Summarize(nil)
}

func TestCI95(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	want := 1.96 * s.Std / 2 // sqrt(4) = 2
	if !almost(s.CI95(), want) {
		t.Fatalf("ci = %v, want %v", s.CI95(), want)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 1, 1})
	if got := s.String(); got != "1.000 ± 0.000 [1.000, 1.000]" {
		t.Fatalf("String() = %q", got)
	}
}
