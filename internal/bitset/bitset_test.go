package bitset

import (
	"slices"
	"testing"
)

// popcount is the population count, read through AppendBits.
func popcount(s *Set) int { return len(s.AppendBits(nil)) }

func TestSetClearTest(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := New(n)
		for i := 0; i < n; i++ {
			if s.Test(i) {
				t.Fatalf("n=%d: fresh set has bit %d", n, i)
			}
		}
		s.Set(0)
		s.Set(n - 1)
		if !s.Test(0) || !s.Test(n-1) {
			t.Fatalf("n=%d: boundary bits not set", n)
		}
		want := 2
		if n == 1 {
			want = 1 // bit 0 and bit n-1 coincide
		}
		if got := popcount(s); got != want {
			t.Fatalf("n=%d: count = %d, want %d", n, got, want)
		}
		s.Clear(n - 1)
		if s.Test(n-1) || popcount(s) != want-1 {
			t.Fatalf("n=%d: clear failed", n)
		}
	}
}

func TestToggle(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := New(n)
		ref := make([]bool, n)
		for i := 0; i < 4*n; i++ {
			v := (i * 7) % n
			ref[v] = !ref[v]
			if got := s.Toggle(v); got != ref[v] {
				t.Fatalf("n=%d: Toggle(%d) = %v, want %v", n, v, got, ref[v])
			}
			if s.Test(v) != ref[v] {
				t.Fatalf("n=%d: Test(%d) after toggle = %v, want %v", n, v, s.Test(v), ref[v])
			}
		}
		count := 0
		for _, b := range ref {
			if b {
				count++
			}
		}
		if got := popcount(s); got != count {
			t.Fatalf("n=%d: count after toggles = %d, want %d", n, got, count)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, fn := range []func(){
		func() { s.Set(10) },
		func() { s.Set(-1) },
		func() { s.Test(10) },
		func() { s.Clear(64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestFillMasksTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127} {
		s := New(n)
		s.Fill()
		if got := popcount(s); got != n {
			t.Fatalf("n=%d: Fill count = %d, want %d", n, got, n)
		}
		if n > 0 && !s.Test(n-1) {
			t.Fatalf("n=%d: last bit not set after Fill", n)
		}
		if w := s.Words(); n%64 != 0 && w[len(w)-1]>>uint(n%64) != 0 {
			t.Fatalf("n=%d: Fill set bits past the end: %#x", n, w[len(w)-1])
		}
	}
}

func TestReset(t *testing.T) {
	s := New(100)
	s.Set(77)
	s.Set(3)
	s.Reset()
	if popcount(s) != 0 {
		t.Fatal("Reset left bits behind")
	}
}

func TestAppendBits(t *testing.T) {
	s := New(200)
	want := []int{0, 1, 63, 64, 65, 128, 199}
	for _, i := range want {
		s.Set(i)
	}
	if got := s.AppendBits(make([]int, 0, 8)); !slices.Equal(got, want) {
		t.Fatalf("AppendBits = %v, want %v", got, want)
	}
	if got := s.AppendBits([]int{-1}); !slices.Equal(got, append([]int{-1}, want...)) {
		t.Fatalf("AppendBits onto a prefix = %v, want it kept", got)
	}
}

func TestZeroLength(t *testing.T) {
	s := New(0)
	if popcount(s) != 0 {
		t.Fatal("zero-length set misbehaves")
	}
	s.Reset()
	s.Fill()
	if popcount(s) != 0 {
		t.Fatal("Fill on zero-length set set bits")
	}
}
