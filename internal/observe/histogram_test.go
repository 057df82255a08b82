package observe

import (
	"math"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestHistShardLayout pins the cache-line geometry the padsize analyzer
// enforces: a shard is an exact multiple of 64 bytes, so consecutive
// shards in the backing array never share a line.
func TestHistShardLayout(t *testing.T) {
	if s := unsafe.Sizeof(histShard{}); s%64 != 0 {
		t.Fatalf("histShard is %d bytes, want a multiple of 64", s)
	}
}

// TestBucketIndexMatchesBounds: for every finite bucket i, a value just
// below its upper bound maps to i, and the bound itself opens bucket
// i+1 (buckets are half-open, [lower, upper)).
func TestBucketIndexMatchesBounds(t *testing.T) {
	bounds := HistogramUpperBounds()
	if len(bounds) != NumHistogramBuckets-1 {
		t.Fatalf("got %d bounds, want %d", len(bounds), NumHistogramBuckets-1)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not ascending at %d: %g ≤ %g", i, bounds[i], bounds[i-1])
		}
	}
	for i, ub := range bounds {
		below := math.Nextafter(ub, 0)
		if got := bucketIndex(below); got != i {
			t.Errorf("bucketIndex(%g) = %d, want %d", below, got, i)
		}
		if got := bucketIndex(ub); got != i+1 {
			t.Errorf("bucketIndex(%g) = %d, want %d (bounds are exclusive)", ub, got, i+1)
		}
	}
	// Exact powers of two and the 1.5× midpoints are bucket boundaries:
	// 2^e opens a new octave, 1.5·2^e its second sub-bucket.
	if a, b := bucketIndex(1.0), bucketIndex(1.5); b != a+1 {
		t.Errorf("1.0 → %d, 1.5 → %d; want adjacent buckets", a, b)
	}
	for _, v := range []float64{0, -1, math.Ldexp(1, histMinExp-3)} {
		if got := bucketIndex(v); got != 0 {
			t.Errorf("bucketIndex(%g) = %d, want underflow bucket 0", v, got)
		}
	}
	if got := bucketIndex(1e9); got != NumHistogramBuckets-1 {
		t.Errorf("bucketIndex(1e9) = %d, want overflow bucket %d", got, NumHistogramBuckets-1)
	}
}

// TestHistogramObserveSnapshot: observations land in the right buckets,
// and the snapshot's Count and Sum agree with what went in.
func TestHistogramObserveSnapshot(t *testing.T) {
	h := NewHistogram()
	values := []float64{0.001, 0.001, 0.25, 1.0, 100, 1e9, 0}
	var wantSum float64
	for _, v := range values {
		h.Observe(v)
		wantSum += v
	}
	h.Observe(math.NaN())  // dropped
	h.Observe(math.Inf(1)) // dropped
	h.ObserveDuration(2 * time.Second)
	wantSum += 2.0

	snap := h.Snapshot()
	if want := uint64(len(values) + 1); snap.Count != want {
		t.Fatalf("Count = %d, want %d", snap.Count, want)
	}
	var bucketTotal uint64
	for _, c := range snap.Counts {
		bucketTotal += c
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket total %d ≠ Count %d", bucketTotal, snap.Count)
	}
	// Observe spreads the values over shards at random, so Sum adds
	// them up in a varying order. The eight values are non-negative, so
	// every partial sum is at most the total, and each of the seven
	// roundings in Sum or in wantSum errs by at most half an ulp of the
	// total: the two differ by at most 7 ulps of wantSum, about 8e-7
	// here. That is far below the smallest value, 0.001, so a value
	// dropped or counted twice still fails the check.
	tol := 8 * (math.Nextafter(wantSum, math.Inf(1)) - wantSum)
	if math.Abs(snap.Sum-wantSum) > tol {
		t.Fatalf("Sum = %g, want %g within %g", snap.Sum, wantSum, tol)
	}
	for _, v := range append(values, 2.0) {
		if v != 0 && math.Abs(snap.Sum-(wantSum-v)) <= tol {
			t.Fatalf("Sum = %g passes the bound even against the sum without %g", snap.Sum, v)
		}
	}
	if snap.Counts[bucketIndex(0.001)] != 2 {
		t.Errorf("0.001 bucket = %d, want 2", snap.Counts[bucketIndex(0.001)])
	}
	if snap.Counts[0] != 1 { // the single 0 value
		t.Errorf("underflow bucket = %d, want 1", snap.Counts[0])
	}
	if snap.Counts[NumHistogramBuckets-1] != 1 { // the 1e9 value
		t.Errorf("+Inf bucket = %d, want 1", snap.Counts[NumHistogramBuckets-1])
	}
}

// TestHistogramNil: every method on a nil histogram is a safe no-op —
// the telemetry-off fast path.
func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 {
		t.Fatalf("nil histogram snapshot not empty: %+v", snap)
	}
	if q := snap.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// with a scrape racing the writers; under -race this proves Observe and
// Snapshot are race-clean, and the final count must be exact (no lost
// updates despite the sharded CAS sum).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent scraper
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(seed+1) * 1e-4)
			}
		}(w)
	}
	wg.Wait()
	close(stop)

	snap := h.Snapshot()
	if want := uint64(workers * perWorker); snap.Count != want {
		t.Fatalf("Count = %d, want %d (lost updates)", snap.Count, want)
	}
	var wantSum float64
	for w := 0; w < workers; w++ {
		wantSum += float64(w+1) * 1e-4 * perWorker
	}
	if math.Abs(snap.Sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("Sum = %g, want ≈ %g", snap.Sum, wantSum)
	}
}

// TestHistogramQuantile: the quantile estimate is the upper bound of
// the bucket holding the ranked observation.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(0.010) // ~10ms bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.8) // ~2s bucket
	}
	snap := h.Snapshot()
	p50 := snap.Quantile(0.5)
	if p50 < 0.010 || p50 > 0.020 {
		t.Errorf("p50 = %g, want within the 10ms bucket's bound", p50)
	}
	p99 := snap.Quantile(0.99)
	if p99 < 1.8 || p99 > 4 {
		t.Errorf("p99 = %g, want within the 1.8s bucket's bound", p99)
	}
}

// BenchmarkHistogramObserve proves the acceptance criterion: recording
// into a live histogram allocates nothing.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.001
		for pb.Next() {
			h.Observe(v)
		}
	})
	if a := testing.AllocsPerRun(1000, func() { h.Observe(0.5) }); a != 0 {
		b.Fatalf("Histogram.Observe allocates %v per call, want 0", a)
	}
}

// BenchmarkHistogramObserveNil measures the telemetry-off fast path:
// one pointer comparison.
func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
	if a := testing.AllocsPerRun(1000, func() { h.Observe(0.5) }); a != 0 {
		b.Fatalf("nil Observe allocates %v per call, want 0", a)
	}
}
