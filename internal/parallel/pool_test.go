package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolForCoversEveryIndexOnce checks the stealing scheduler's core
// invariant: every index is executed exactly once, for assorted sizes,
// thread counts, and grains.
func TestPoolForCoversEveryIndexOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 5, 127, 1 << 10, 1<<16 + 3} {
		for _, threads := range []int{1, 2, 3, 4, 9} {
			for _, grain := range []int{1, 7, 1024} {
				hits := make([]atomic.Int32, n)
				p.For(n, threads, grain, func(lo, hi, tid int) {
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("n=%d threads=%d grain=%d: index %d hit %d times",
							n, threads, grain, i, got)
					}
				}
			}
		}
	}
}

// TestPoolForSkewedWork drives the stealing path: one chunk carries
// nearly all the work, so finishing in reasonable time with full
// coverage requires thieves to take ranges from the loaded worker.
func TestPoolForSkewedWork(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 1 << 12
	var sum atomic.Int64
	p.For(n, 4, 1, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			rounds := 1
			if i < 8 { // first indices are 10000x heavier
				rounds = 10000
			}
			acc := 0
			for r := 0; r < rounds; r++ {
				acc += i
			}
			if rounds > 1 {
				acc /= rounds
			}
			sum.Add(int64(acc))
		}
	})
	want := int64(n) * (n - 1) / 2
	if sum.Load() != want {
		t.Fatalf("skewed sum = %d, want %d", sum.Load(), want)
	}
}

// TestPoolConcurrentRegions stress-tests the pool under -race: many
// goroutines submit For / scan / reduction regions to one pool at once.
// Overlapping submissions must degrade gracefully (TryLock falls back
// to spawn mode) without losing or duplicating work.
func TestPoolConcurrentRegions(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const submitters = 8
	const rounds = 25
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			n := 2000 + 100*s
			for r := 0; r < rounds; r++ {
				switch r % 3 {
				case 0:
					var sum atomic.Int64
					p.For(n, 4, 16, func(lo, hi, _ int) {
						local := int64(0)
						for i := lo; i < hi; i++ {
							local += int64(i)
						}
						sum.Add(local)
					})
					if want := int64(n) * int64(n-1) / 2; sum.Load() != want {
						t.Errorf("concurrent For: sum = %d, want %d", sum.Load(), want)
						return
					}
				case 1:
					a := make([]uint32, n)
					for i := range a {
						a[i] = 2
					}
					if total := p.ExclusiveScanUint32(a, 4); total != uint32(2*n) {
						t.Errorf("concurrent scan: total = %d, want %d", total, 2*n)
						return
					}
				case 2:
					a := make([]float64, n)
					for i := range a {
						a[i] = 0.5
					}
					if got := p.SumFloat64(a, 4); got != float64(n)/2 {
						t.Errorf("concurrent sum: %v, want %v", got, float64(n)/2)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestDefaultPoolConcurrentRegions runs the same overlap stress against
// the shared default pool, which every caller without its own pool uses.
func TestDefaultPoolConcurrentRegions(t *testing.T) {
	const submitters = 6
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				var count atomic.Int64
				Default().For(5000, 4, 64, func(lo, hi, _ int) {
					count.Add(int64(hi - lo))
				})
				if count.Load() != 5000 {
					t.Errorf("default pool For covered %d of 5000", count.Load())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolNestedFor submits a region from inside a region. The inner
// submission must not deadlock; it falls back to spawn mode (or inline)
// and still covers its range.
func TestPoolNestedFor(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var inner atomic.Int64
	p.For(4, 4, 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			p.For(1000, 2, 16, func(ilo, ihi, _ int) {
				inner.Add(int64(ihi - ilo))
			})
		}
	})
	if inner.Load() != 4000 {
		t.Fatalf("nested regions covered %d of 4000", inner.Load())
	}
}

// TestPoolSubmitterPanicDrainsRegion panics in the submitter's share of
// a region (tid 0) while the other worker is still busy in its own. The
// panic must reach the caller only after that worker has left the
// region, and the next region must cover every index exactly once: a
// worker still running the old body would claim the new ranges with it.
func TestPoolSubmitterPanicDrainsRegion(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const n = 64
	var returned atomic.Bool
	var late atomic.Int32 // chunks of the first region run after it returned
	started := make(chan struct{})
	var once sync.Once
	func() {
		defer func() {
			if v := recover(); v != "submitter panic" {
				t.Fatalf("recovered %v, want the submitter's panic", v)
			}
		}()
		p.For(n, 2, 1, func(lo, hi, tid int) {
			if tid == 0 {
				<-started // panic only once the other worker is in the region
				panic("submitter panic")
			}
			once.Do(func() { close(started) })
			time.Sleep(time.Millisecond)
			if returned.Load() {
				late.Add(1)
			}
		})
	}()
	returned.Store(true)
	hits := make([]atomic.Int32, n)
	p.For(n, 2, 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	if l := late.Load(); l != 0 {
		t.Fatalf("%d chunks of the panicked region ran after its panic returned", l)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("region after the panic: index %d hit %d times", i, got)
		}
	}
}

// TestScanDeterministicAcrossRuns asserts the determinism contract: for
// a fixed thread count, repeated runs of the scans and the float
// reduction produce identical results (the block partition is a pure
// function of (n, threads), so float rounding order is fixed).
func TestScanDeterministicAcrossRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 100000
	fa := make([]float64, n)
	ua := make([]uint32, n)
	ia := make([]int64, n)
	s := uint64(99)
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		fa[i] = float64(s%1000) * 0.125
		ua[i] = uint32(s % 7)
		ia[i] = int64(s%13) - 6
	}
	for _, threads := range []int{2, 3, 4, 7} {
		refF := p.SumFloat64(fa, threads)
		u := append([]uint32(nil), ua...)
		refU := p.ExclusiveScanUint32(u, threads)
		refUArr := append([]uint32(nil), u...)
		i64 := append([]int64(nil), ia...)
		refI := p.ExclusiveScanInt64(i64, threads)
		refIArr := append([]int64(nil), i64...)
		for run := 0; run < 10; run++ {
			if got := p.SumFloat64(fa, threads); got != refF {
				t.Fatalf("threads=%d run=%d: SumFloat64 = %v, want %v", threads, run, got, refF)
			}
			u2 := append([]uint32(nil), ua...)
			if got := p.ExclusiveScanUint32(u2, threads); got != refU {
				t.Fatalf("threads=%d run=%d: scan total = %d, want %d", threads, run, got, refU)
			}
			for i := range u2 {
				if u2[i] != refUArr[i] {
					t.Fatalf("threads=%d run=%d: scan[%d] differs", threads, run, i)
				}
			}
			i2 := append([]int64(nil), ia...)
			if got := p.ExclusiveScanInt64(i2, threads); got != refI {
				t.Fatalf("threads=%d run=%d: int64 scan total = %d, want %d", threads, run, got, refI)
			}
			for i := range i2 {
				if i2[i] != refIArr[i] {
					t.Fatalf("threads=%d run=%d: int64 scan[%d] differs", threads, run, i)
				}
			}
		}
	}
}

// TestGenericScanOtherTypes exercises ExclusiveScanOn with integer
// types that have no dedicated Pool method.
func TestGenericScanOtherTypes(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	a16 := make([]uint16, 9000)
	for i := range a16 {
		a16[i] = 3
	}
	if total := ExclusiveScanOn(p, a16, 2); total != 27000 {
		t.Fatalf("uint16 scan total = %d, want 27000", total)
	}
	if a16[1] != 3 || a16[8999] != 3*8999 {
		t.Fatal("uint16 scan values wrong")
	}
	type myInt int
	am := make([]myInt, 5000)
	for i := range am {
		am[i] = myInt(i % 4)
	}
	want := myInt(0)
	for _, v := range am {
		want += v
	}
	if total := ExclusiveScanOn(p, am, 3); total != want {
		t.Fatalf("named-type scan total = %d, want %d", total, want)
	}
}

// TestPoolGrow checks that a pool grows when a region asks for more
// threads than it currently has, and that Threads reports the width.
func TestPoolGrow(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if p.Threads() != 2 {
		t.Fatalf("initial width = %d, want 2", p.Threads())
	}
	var count atomic.Int64
	p.For(1<<14, 6, 1, func(lo, hi, _ int) {
		count.Add(int64(hi - lo))
	})
	if count.Load() != 1<<14 {
		t.Fatalf("covered %d of %d", count.Load(), 1<<14)
	}
	if p.Threads() < 6 {
		t.Fatalf("width after 6-thread region = %d, want >= 6", p.Threads())
	}
}

// TestPoolClose checks regions still complete (in fallback mode) after
// Close, so a closed pool degrades rather than deadlocks.
func TestPoolClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // double Close must be safe
	var count atomic.Int64
	p.For(10000, 4, 64, func(lo, hi, _ int) {
		count.Add(int64(hi - lo))
	})
	if count.Load() != 10000 {
		t.Fatalf("closed pool covered %d of 10000", count.Load())
	}
	a := []uint32{1, 2, 3}
	if total := p.ExclusiveScanUint32(a, 2); total != 6 {
		t.Fatalf("closed pool scan total = %d", total)
	}
}

// TestForSpawnMatchesPool pins the fallback path to the same coverage
// contract as the pool path.
func TestForSpawnMatchesPool(t *testing.T) {
	const n = 50000
	hits := make([]atomic.Int32, n)
	forSpawn(n, 4, 128, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("forSpawn: index %d hit %d times", i, hits[i].Load())
		}
	}
}
