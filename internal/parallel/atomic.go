package parallel

import (
	"math"
	"sync/atomic"
)

// Float64s is a slice of float64 values supporting atomic access. The
// values are stored as IEEE-754 bit patterns in uint64 words so that
// compare-and-swap loops (the only portable lock-free way to add to a
// float) work on them. GVE-Leiden uses this for the per-community total
// edge weight array Σ', which the local-moving and refinement phases
// update atomically (Algorithm 2 line 12, Algorithm 3 lines 10-11).
type Float64s struct {
	bits []uint64
}

// NewFloat64s returns an atomically accessible float slice of length n,
// initialized to zero.
func NewFloat64s(n int) *Float64s {
	return &Float64s{bits: make([]uint64, n)}
}

// Len returns the number of elements.
func (f *Float64s) Len() int { return len(f.bits) }

// Get atomically loads element i.
func (f *Float64s) Get(i int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&f.bits[i]))
}

// Set atomically stores v into element i.
func (f *Float64s) Set(i int, v float64) {
	atomic.StoreUint64(&f.bits[i], math.Float64bits(v))
}

// Add atomically adds delta to element i and returns the new value.
func (f *Float64s) Add(i int, delta float64) float64 {
	for {
		old := atomic.LoadUint64(&f.bits[i])
		val := math.Float64frombits(old) + delta
		if atomic.CompareAndSwapUint64(&f.bits[i], old, math.Float64bits(val)) {
			return val
		}
	}
}

// FetchAdd is Add returning the value element i held just before the
// add, bit-exact (recovering it as Add's result minus delta would
// round). The local-moving phase reads Σ' this way to measure the gain
// its own update realized.
func (f *Float64s) FetchAdd(i int, delta float64) float64 {
	for {
		old := atomic.LoadUint64(&f.bits[i])
		val := math.Float64frombits(old)
		if atomic.CompareAndSwapUint64(&f.bits[i], old, math.Float64bits(val+delta)) {
			return val
		}
	}
}

// AddIfNonZero atomically adds delta to element i unless the element is
// zero (either sign), reporting whether the add happened. The
// refinement phase joins a sub-community through it: Σ'[c] is zero
// exactly when c's only vertex has left it, and nothing may join an
// emptied sub-community.
func (f *Float64s) AddIfNonZero(i int, delta float64) bool {
	for {
		old := atomic.LoadUint64(&f.bits[i])
		val := math.Float64frombits(old)
		if val == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&f.bits[i], old, math.Float64bits(val+delta)) {
			return true
		}
	}
}

// CAS atomically replaces element i with new if it currently equals old,
// reporting whether the swap happened. This is the atomicCAS of
// Algorithm 3, which claims an isolated vertex's singleton community by
// swapping Σ'[c] from K'[i] to 0.
//
// Equality is bit-pattern equality (Float64bits), not float equality:
// -0.0 does not match +0.0 even though -0.0 == +0.0, and a NaN element
// CAN be replaced — but only by passing a NaN with the identical bit
// pattern as old, whereas NaN == NaN is always false. This is exactly
// right for the refinement phase (values are sums of edge weights, and
// a community claimed with CAS(c, K'[i], 0) was stored from the same
// bits), but callers comparing against recomputed — rather than
// previously loaded — values must keep the caveat in mind.
func (f *Float64s) CAS(i int, old, new float64) bool {
	return atomic.CompareAndSwapUint64(&f.bits[i], math.Float64bits(old), math.Float64bits(new))
}

// CopyFrom stores src[i] into every element, in parallel on pool p
// (nil = default pool). Used to reset Σ' ← K' at the start of a pass
// and of the refinement phase.
//
//gvevet:exclusive phase reset: runs between phases behind a pool barrier, no concurrent element access
func (f *Float64s) CopyFrom(p *Pool, src []float64, threads int) {
	if p == nil {
		p = Default()
	}
	p.For(len(f.bits), threads, 1<<14, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			f.bits[i] = math.Float64bits(src[i])
		}
	})
}

// Zero resets every element to 0, in parallel on pool p (nil = default
// pool).
//
//gvevet:exclusive phase reset: runs between phases behind a pool barrier, no concurrent element access
func (f *Float64s) Zero(p *Pool, threads int) {
	if p == nil {
		p = Default()
	}
	p.For(len(f.bits), threads, 1<<14, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			f.bits[i] = 0
		}
	})
}

// Resize grows (or reslices) the backing store to length n, preserving
// nothing. It exists so a single Float64s can be reused across Leiden
// passes as the super-vertex graph shrinks, avoiding reallocation (the
// paper preallocates all per-pass buffers).
//
//gvevet:exclusive single-threaded pass setup: resizing happens before workers are released
func (f *Float64s) Resize(n int) {
	if cap(f.bits) >= n {
		f.bits = f.bits[:n]
		return
	}
	f.bits = make([]uint64, n)
}

// Flags is a slice of atomically accessible booleans, used for the
// flag-based vertex pruning of Algorithm 2 (lines 2, 6, 14): a vertex is
// processed only while its flag is set, and a successful move re-flags
// the neighbours. Stored one uint32 per flag to keep atomics simple.
type Flags struct {
	bits []uint32
}

// NewFlags returns n flags, all clear.
func NewFlags(n int) *Flags {
	return &Flags{bits: make([]uint32, n)}
}

// Len returns the number of flags.
func (f *Flags) Len() int { return len(f.bits) }

// Get atomically loads flag i.
func (f *Flags) Get(i int) bool {
	return atomic.LoadUint32(&f.bits[i]) != 0
}

// Set atomically sets flag i to v.
func (f *Flags) Set(i int, v bool) {
	var x uint32
	if v {
		x = 1
	}
	atomic.StoreUint32(&f.bits[i], x)
}

// SetAll sets every flag to v, in parallel on pool p (nil = default
// pool).
//
//gvevet:exclusive phase reset: runs between phases behind a pool barrier, no concurrent flag access
func (f *Flags) SetAll(p *Pool, v bool, threads int) {
	var x uint32
	if v {
		x = 1
	}
	if p == nil {
		p = Default()
	}
	p.For(len(f.bits), threads, 1<<14, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			f.bits[i] = x
		}
	})
}

// Resize grows (or reslices) the flag array to length n, preserving
// nothing.
//
//gvevet:exclusive single-threaded pass setup: resizing happens before workers are released
func (f *Flags) Resize(n int) {
	if cap(f.bits) >= n {
		f.bits = f.bits[:n]
		return
	}
	f.bits = make([]uint32, n)
}
