package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 97, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-ish sanity test: 10 buckets, 100k samples.
	s := New(123)
	const buckets, samples = 10, 100000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[s.Intn(buckets)]++
	}
	expected := float64(samples) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("bucket %d: count %d far from expected %.0f", i, c, expected)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(42)
	child := parent.Split()
	// The child stream must not equal the parent continuation.
	divergent := false
	for i := 0; i < 100; i++ {
		if parent.Uint64() != child.Uint64() {
			divergent = true
			break
		}
	}
	if !divergent {
		t.Fatal("child stream mirrors parent stream")
	}
}

func TestSplitNDeterministicAndDistinct(t *testing.T) {
	a := New(42).SplitN(16)
	b := New(42).SplitN(16)
	for i := range a {
		if a[i].Uint64() != b[i].Uint64() {
			t.Fatalf("SplitN child %d not reproducible", i)
		}
	}
	// Distinct children produce distinct first outputs (w.h.p., checked fixed seed).
	seen := map[uint64]int{}
	for i, c := range New(7).SplitN(64) {
		v := c.Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("children %d and %d share first output", i, j)
		}
		seen[v] = i
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(2024)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestIntnGolden pins the exact stream Intn draws from a fixed seed: every
// refiner move and graph generator reads it, so a change to the
// multiply-shift or its rejection threshold moves every seeded output. The
// bounds cover the trivial range, small odd and even ranges, powers of two,
// a bound whose rejection zone is a quarter of the 64-bit range (3<<61) and
// the largest int.
func TestIntnGolden(t *testing.T) {
	const want = "e019163c06ebf39e3b106544410c45d82896a539daa9a48bf17dc73a705de77e"
	s := New(2024)
	h := sha256.New()
	var buf [8]byte
	for _, n := range []int{1, 2, 3, 7, 1000, 1 << 20, 1 << 40, 3 << 61, math.MaxInt64} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d, out of range", n, v)
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Intn draws SHA-256 = %s, want %s", got, want)
	}
}

func TestShuffleCoversArrangements(t *testing.T) {
	// All 6 permutations of 3 elements should appear over many shuffles.
	s := New(31)
	seen := map[[3]int]bool{}
	for i := 0; i < 600; i++ {
		arr := [3]int{0, 1, 2}
		s.Shuffle(3, func(i, j int) { arr[i], arr[j] = arr[j], arr[i] })
		seen[arr] = true
	}
	if len(seen) != 6 {
		t.Errorf("saw %d/6 permutations", len(seen))
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000)
	}
}
