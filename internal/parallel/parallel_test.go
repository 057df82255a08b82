package parallel

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, threads, grain int }{
		{0, 4, 8},
		{1, 4, 8},
		{7, 1, 0},
		{100, 3, 7},
		{1000, 8, 16},
		{1024, 4, 1024},
		{1025, 4, 1024},
		{5000, 16, 3},
	} {
		counts := make([]int32, tc.n)
		Default().For(tc.n, tc.threads, tc.grain, func(lo, hi, tid int) {
			if lo < 0 || hi > tc.n || lo > hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, tc.n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d threads=%d grain=%d: index %d visited %d times",
					tc.n, tc.threads, tc.grain, i, c)
			}
		}
	}
}

func TestForTidInRange(t *testing.T) {
	const threads = 6
	Default().For(10000, threads, 16, func(lo, hi, tid int) {
		if tid < 0 || tid >= threads {
			t.Errorf("tid %d out of [0,%d)", tid, threads)
		}
	})
}

func TestForSequentialFastPathUsesTidZero(t *testing.T) {
	Default().For(100, 1, 10, func(lo, hi, tid int) {
		if tid != 0 {
			t.Errorf("sequential path must use tid 0, got %d", tid)
		}
	})
}

func TestForEach(t *testing.T) {
	sum := int64(0)
	Default().ForEach(1000, 4, 32, func(i, _ int) {
		atomic.AddInt64(&sum, int64(i))
	})
	if sum != 999*1000/2 {
		t.Fatalf("ForEach sum = %d, want %d", sum, 999*1000/2)
	}
}

func TestBlocksPartition(t *testing.T) {
	for _, tc := range []struct{ n, threads int }{
		{10, 3}, {1, 5}, {100, 100}, {7, 8}, {1000, 4},
	} {
		visited := make([]int32, tc.n)
		Default().Blocks(tc.n, tc.threads, func(block, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visited[i], 1)
			}
		})
		for i, c := range visited {
			if c != 1 {
				t.Fatalf("n=%d threads=%d: index %d visited %d times", tc.n, tc.threads, i, c)
			}
		}
	}
}

func seqExclusiveScan(a []uint32) ([]uint32, uint32) {
	out := make([]uint32, len(a))
	var sum uint32
	for i, v := range a {
		out[i] = sum
		sum += v
	}
	return out, sum
}

func TestExclusiveScanUint32MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 4095, 4096, 4097, 100000} {
		a := make([]uint32, n)
		for i := range a {
			a[i] = uint32(rng.Intn(10))
		}
		want, wantTotal := seqExclusiveScan(a)
		got := append([]uint32(nil), a...)
		total := Default().ExclusiveScanUint32(got, 4)
		if total != wantTotal {
			t.Fatalf("n=%d: total %d, want %d", n, total, wantTotal)
		}
		if !reflect.DeepEqual(got, want) && n > 0 {
			t.Fatalf("n=%d: scan mismatch", n)
		}
	}
}

func TestExclusiveScanUint32Property(t *testing.T) {
	err := quick.Check(func(a []uint32) bool {
		for i := range a {
			a[i] %= 1000 // keep sums in range
		}
		want, wantTotal := seqExclusiveScan(a)
		got := append([]uint32(nil), a...)
		total := Default().ExclusiveScanUint32(got, 8)
		if total != wantTotal {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveScanInt64(t *testing.T) {
	a := []int64{5, 0, 3, -2, 7}
	total := Default().ExclusiveScanInt64(a, 2)
	if total != 13 {
		t.Fatalf("total = %d, want 13", total)
	}
	want := []int64{0, 5, 5, 8, 6}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("scan = %v, want %v", a, want)
	}
}

func TestExclusiveScanInt64Large(t *testing.T) {
	n := 50000
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(i % 7)
	}
	b := append([]int64(nil), a...)
	totA := Default().ExclusiveScanInt64(a, 1)
	totB := Default().ExclusiveScanInt64(b, 8)
	if totA != totB {
		t.Fatalf("totals differ: %d vs %d", totA, totB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("parallel int64 scan differs from sequential")
	}
}

func TestSumFloat64(t *testing.T) {
	n := 100000
	a := make([]float64, n)
	for i := range a {
		a[i] = 0.5
	}
	if got := Default().SumFloat64(a, 4); got != float64(n)/2 {
		t.Fatalf("sum = %v, want %v", got, float64(n)/2)
	}
	if got := Default().SumFloat64(nil, 4); got != 0 {
		t.Fatalf("sum(nil) = %v", got)
	}
}

func TestFillAndIota(t *testing.T) {
	a := make([]uint32, 33000)
	Default().FillUint32(a, 7, 4)
	for i, v := range a {
		if v != 7 {
			t.Fatalf("fill missed index %d", i)
		}
	}
	Default().Iota(a, 4)
	for i, v := range a {
		if v != uint32(i) {
			t.Fatalf("iota wrong at %d: %d", i, v)
		}
	}
	f := make([]float64, 20000)
	Default().FillFloat64(f, 2.5, 4)
	for i, v := range f {
		if v != 2.5 {
			t.Fatalf("float fill missed index %d", i)
		}
	}
}

func TestDefaultThreadsPositive(t *testing.T) {
	if DefaultThreads() < 1 {
		t.Fatal("DefaultThreads must be ≥ 1")
	}
}

func TestForNegativeAndZero(t *testing.T) {
	called := false
	Default().For(-5, 4, 8, func(lo, hi, tid int) { called = true })
	Default().For(0, 4, 8, func(lo, hi, tid int) { called = true })
	if called {
		t.Fatal("For must not invoke the body for n ≤ 0")
	}
}

func TestBlocksMoreThreadsThanWork(t *testing.T) {
	var count int32
	Default().Blocks(3, 100, func(block, lo, hi int) {
		atomic.AddInt32(&count, int32(hi-lo))
	})
	if count != 3 {
		t.Fatalf("covered %d of 3", count)
	}
	Default().Blocks(0, 4, func(block, lo, hi int) { t.Fatal("empty range visited") })
}

func TestExclusiveScanEmpty(t *testing.T) {
	if Default().ExclusiveScanUint32(nil, 4) != 0 {
		t.Fatal("empty scan total")
	}
	if Default().ExclusiveScanInt64(nil, 4) != 0 {
		t.Fatal("empty int64 scan total")
	}
}
