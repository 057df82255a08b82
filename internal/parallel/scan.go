package parallel

// Integer is the constraint of ExclusiveScanOn: any fixed-width or
// platform integer type. (Local definition so the runtime has no
// dependency beyond the standard library.)
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// scanSeqCutoff is the length below which the two-pass parallel scan
// loses to a plain sequential sweep.
const scanSeqCutoff = 4096

// ExclusiveScanOn replaces a with its exclusive prefix sum and returns
// the total, running on pool p. With threads > 1 it is the classic
// two-pass block scan: per-block sums (into cache-line-padded cells, so
// the concurrently written partials never false-share), a sequential
// scan over the (tiny) block-sum array, then per-block exclusive
// prefixes offset by the block base.
//
// The block partition is a pure function of (len(a), threads), so for
// a fixed thread count the result — including any wraparound behaviour
// of T — is identical across runs.
//
// The scan takes exclusive ownership of a: plain element access by
// contract, with callers barrier-separated from any phase that touches
// a atomically.
//
//gvevet:exclusive scan owns a exclusively, barrier-separated from atomic phases
func ExclusiveScanOn[T Integer](p *Pool, a []T, threads int) T {
	n := len(a)
	if n == 0 {
		return 0
	}
	if threads <= 1 || n < scanSeqCutoff {
		var sum T
		for i := 0; i < n; i++ {
			v := a[i]
			a[i] = sum
			sum += v
		}
		return sum
	}
	if threads > n {
		threads = n
	}
	sums := make([]Padded[T], threads)
	p.Blocks(n, threads, func(block, lo, hi int) {
		var s T
		for i := lo; i < hi; i++ {
			s += a[i]
		}
		sums[block].V = s
	})
	var total T
	for b := range sums {
		s := sums[b].V
		sums[b].V = total
		total += s
	}
	p.Blocks(n, threads, func(block, lo, hi int) {
		run := sums[block].V
		for i := lo; i < hi; i++ {
			v := a[i]
			a[i] = run
			run += v
		}
	})
	return total
}

// SumFloat64On reduces a on pool p. The per-block partial sums (padded
// against false sharing) and the fixed block partition keep the float
// rounding deterministic for a fixed thread count.
func SumFloat64On(p *Pool, a []float64, threads int) float64 {
	n := len(a)
	if threads <= 1 || n < scanSeqCutoff {
		var s float64
		for _, v := range a {
			s += v
		}
		return s
	}
	if threads > n {
		threads = n
	}
	sums := make([]Padded[float64], threads)
	p.Blocks(n, threads, func(block, lo, hi int) {
		var s float64
		for i := lo; i < hi; i++ {
			s += a[i]
		}
		sums[block].V = s
	})
	var total float64
	for b := range sums {
		total += sums[b].V
	}
	return total
}

// FirstOn returns the smallest failing index in [0, n), or n if none
// fails, testing grain-sized chunks on pool p: first(lo, hi, tid)
// returns the smallest failing index in [lo, hi), or hi, where tid is
// the testing participant as in Pool.For. A participant skips the
// chunks past the smallest failure it has found, so the answer is the
// same at every thread count.
func FirstOn(p *Pool, n, threads, grain int, first func(lo, hi, tid int) int) int {
	found := make([]Padded[int], max(threads, 1))
	for t := range found {
		found[t].V = n
	}
	p.For(n, threads, grain, func(lo, hi, tid int) {
		if end := min(hi, found[tid].V); lo < end {
			if i := first(lo, end, tid); i < end {
				found[tid].V = i
			}
		}
	})
	out := n
	for t := range found {
		out = min(out, found[t].V)
	}
	return out
}

// ExclusiveScanUint32 runs ExclusiveScanOn for uint32 slices on pool p.
func (p *Pool) ExclusiveScanUint32(a []uint32, threads int) uint32 {
	return ExclusiveScanOn(p, a, threads)
}

// ExclusiveScanInt64 runs ExclusiveScanOn for int64 slices on pool p.
func (p *Pool) ExclusiveScanInt64(a []int64, threads int) int64 {
	return ExclusiveScanOn(p, a, threads)
}

// SumFloat64 runs SumFloat64On on pool p.
func (p *Pool) SumFloat64(a []float64, threads int) float64 {
	return SumFloat64On(p, a, threads)
}
