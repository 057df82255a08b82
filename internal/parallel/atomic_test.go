package parallel

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFloat64sBasics(t *testing.T) {
	f := NewFloat64s(4)
	if f.Len() != 4 {
		t.Fatalf("len = %d", f.Len())
	}
	f.Set(2, 3.5)
	if got := f.Get(2); got != 3.5 {
		t.Fatalf("get = %v", got)
	}
	if got := f.Add(2, 1.5); got != 5 {
		t.Fatalf("add returned %v, want 5", got)
	}
	if got := f.Get(2); got != 5 {
		t.Fatalf("after add: %v", got)
	}
}

func TestFloat64sCAS(t *testing.T) {
	f := NewFloat64s(1)
	f.Set(0, 2.0)
	if f.CAS(0, 3.0, 9.0) {
		t.Fatal("CAS with wrong old value must fail")
	}
	if !f.CAS(0, 2.0, 9.0) {
		t.Fatal("CAS with right old value must succeed")
	}
	if f.Get(0) != 9.0 {
		t.Fatalf("after CAS: %v", f.Get(0))
	}
	// Only one of many concurrent CAS claims may win — the refinement
	// phase's isolation guard depends on this.
	f.Set(0, 7.0)
	var wins int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if f.CAS(0, 7.0, 0) {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("CAS wins = %d, want exactly 1", wins)
	}
}

// TestFloat64sCASBitPatterns pins down the documented caveat: CAS
// compares IEEE-754 bit patterns, not float equality. -0.0 and +0.0 are
// equal as floats but distinct as bits; NaNs are never equal as floats
// but CAS-able when the bit patterns (payloads) are identical.
func TestFloat64sCASBitPatterns(t *testing.T) {
	f := NewFloat64s(1)

	negZero := math.Copysign(0, -1)
	f.Set(0, negZero)
	if f.CAS(0, 0.0, 1.0) {
		t.Fatal("CAS(+0.0) must fail on an element holding -0.0, even though -0.0 == +0.0")
	}
	if !f.CAS(0, negZero, 1.0) {
		t.Fatal("CAS(-0.0) must succeed on an element holding -0.0")
	}

	nan := math.NaN()
	f.Set(0, nan)
	if !f.CAS(0, nan, 2.0) {
		t.Fatal("CAS with the identical NaN bit pattern must succeed, even though NaN != NaN")
	}
	f.Set(0, nan)
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1) // different payload
	if !math.IsNaN(otherNaN) {
		t.Fatal("payload flip must still be a NaN")
	}
	if f.CAS(0, otherNaN, 2.0) {
		t.Fatal("CAS with a different NaN payload must fail")
	}
}

func TestFloat64sConcurrentAdd(t *testing.T) {
	f := NewFloat64s(8)
	const workers = 8
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Add(i%8, 1)
			}
		}()
	}
	wg.Wait()
	var total float64
	for i := 0; i < 8; i++ {
		total += f.Get(i)
	}
	if total != workers*per {
		t.Fatalf("concurrent adds lost updates: total %v, want %d", total, workers*per)
	}
}

func TestFloat64sFetchAdd(t *testing.T) {
	f := NewFloat64s(1)
	// a+b rounds, so old = new − delta would not give a back.
	a, b := 0.1, 0.2
	f.Set(0, a)
	if old := f.FetchAdd(0, b); old != a {
		t.Fatalf("FetchAdd returned %v, want the previous %v", old, a)
	}
	if got := f.Get(0); got != a+b || got-b == a {
		t.Fatalf("after FetchAdd: %v, want %v (and a rounded sum)", got, a+b)
	}

	// Concurrent FetchAdds of 1 from 0 hand out every previous value
	// 0..n−1 exactly once: the adds are linearized.
	const workers, per = 8, 2000
	f.Set(0, 0)
	seen := make([]int32, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				atomic.AddInt32(&seen[int(f.FetchAdd(0, 1))], 1)
			}
		}()
	}
	wg.Wait()
	for v := range seen {
		if c := atomic.LoadInt32(&seen[v]); c != 1 {
			t.Fatalf("previous value %d returned %d times", v, c)
		}
	}
}

func TestFloat64sAddIfNonZero(t *testing.T) {
	f := NewFloat64s(3)
	f.Set(0, 2)
	if !f.AddIfNonZero(0, 1.5) || f.Get(0) != 3.5 {
		t.Fatalf("add to a nonzero element: ok=false or value %v", f.Get(0))
	}
	if f.AddIfNonZero(1, 1) || f.Get(1) != 0 {
		t.Fatalf("add to +0 must be refused and leave it 0, got %v", f.Get(1))
	}
	f.Set(2, negZero())
	if f.AddIfNonZero(2, 1) {
		t.Fatal("add to -0 must be refused")
	}

	// Emptying races joining: once the CAS to zero wins, every later
	// conditional add is refused, so the final value is either the
	// emptied 0 (claim won before any join) or 1 plus the joins.
	for round := 0; round < 200; round++ {
		f.Set(0, 1)
		var joined atomic.Int32
		var claimed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if f.AddIfNonZero(0, 2) {
					joined.Add(1)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			claimed.Store(f.CAS(0, 1, 0))
		}()
		wg.Wait()
		got, j := f.Get(0), float64(joined.Load())
		if claimed.Load() && (j != 0 || got != 0) {
			t.Fatalf("round %d: claim won but %v joins landed (value %v)", round, j, got)
		}
		if !claimed.Load() && got != 1+2*j {
			t.Fatalf("round %d: value %v, want 1+2·%v", round, got, j)
		}
	}
}

func TestFloat64sCopyFromZeroResize(t *testing.T) {
	f := NewFloat64s(5)
	src := []float64{1, 2, 3, 4, 5}
	f.CopyFrom(nil, src, 2)
	for i, want := range src {
		if f.Get(i) != want {
			t.Fatalf("copy: idx %d = %v", i, f.Get(i))
		}
	}
	f.Zero(nil, 2)
	for i := range src {
		if f.Get(i) != 0 {
			t.Fatalf("zero: idx %d = %v", i, f.Get(i))
		}
	}
	f.Resize(3)
	if f.Len() != 3 {
		t.Fatalf("resize down: len %d", f.Len())
	}
	f.Resize(100)
	if f.Len() != 100 {
		t.Fatalf("resize up: len %d", f.Len())
	}
}

func TestFloat64sNegativeAndSpecialValues(t *testing.T) {
	f := NewFloat64s(1)
	f.Add(0, -2.5)
	if f.Get(0) != -2.5 {
		t.Fatalf("negative add: %v", f.Get(0))
	}
	// -0.0 and +0.0 have different bit patterns; CAS is bit-pattern
	// exact, which callers must be aware of.
	f.Set(0, 0.0)
	if f.CAS(0, negZero(), 1.0) {
		t.Fatal("CAS(+0 stored, -0 expected) must fail: bit-pattern semantics")
	}
	if !f.CAS(0, 0.0, 1.0) {
		t.Fatal("CAS(+0, +0) must succeed")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

func TestFlags(t *testing.T) {
	f := NewFlags(10)
	if f.Len() != 10 {
		t.Fatalf("len %d", f.Len())
	}
	if f.Get(3) {
		t.Fatal("flags must start clear")
	}
	f.Set(3, true)
	if !f.Get(3) {
		t.Fatal("set failed")
	}
	f.Set(3, false)
	if f.Get(3) {
		t.Fatal("clear failed")
	}
	f.SetAll(nil, true, 4)
	for i := 0; i < 10; i++ {
		if !f.Get(i) {
			t.Fatalf("SetAll(true) missed %d", i)
		}
	}
	f.SetAll(nil, false, 4)
	for i := 0; i < 10; i++ {
		if f.Get(i) {
			t.Fatalf("SetAll(false) missed %d", i)
		}
	}
	f.Resize(5)
	if f.Len() != 5 {
		t.Fatalf("resize down: %d", f.Len())
	}
	f.Resize(50)
	if f.Len() != 50 {
		t.Fatalf("resize up: %d", f.Len())
	}
}

func BenchmarkFloat64sAdd(b *testing.B) {
	f := NewFloat64s(1024)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f.Add(i&1023, 1)
			i++
		}
	})
}
