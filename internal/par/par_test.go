package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 16} {
		runtime.GOMAXPROCS(procs)
		var count int64
		seen := make([]int32, 1000)
		ForEach(1000, func(i int) {
			atomic.AddInt64(&count, 1)
			atomic.AddInt32(&seen[i], 1)
		})
		if count != 1000 {
			t.Fatalf("GOMAXPROCS=%d: ran %d of 1000", procs, count)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	ran := false
	ForEach(0, func(int) { ran = true })
	ForEach(-3, func(int) { ran = true })
	if ran {
		t.Fatal("fn called for non-positive n")
	}
}

func TestMapOrdersResults(t *testing.T) {
	got := Map(100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	a := Map(50, func(i int) int { return i * 3 })
	runtime.GOMAXPROCS(7)
	b := Map(50, func(i int) int { return i * 3 })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("results depend on worker count")
		}
	}
}

func BenchmarkForEach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(64, func(j int) {
			s := 0
			for k := 0; k < 1000; k++ {
				s += k
			}
			_ = s
		})
	}
}
