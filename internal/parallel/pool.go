package parallel

import (
	"sync"
	"sync/atomic"
	"time"

	"gveleiden/internal/observe"
)

// Pool is a persistent work-stealing worker pool — the Go equivalent of
// an OpenMP thread team. Workers are spawned once and park on cheap
// per-worker channel wakeups between parallel regions, so a Leiden run
// that issues hundreds of regions (move iterations × passes, refinement
// sweeps, fills, scans, aggregation) pays goroutine creation only once
// instead of on every region.
//
// Scheduling inside a region combines guided self-scheduling with
// work-stealing: [0, n) is split into one contiguous range per
// participant; each participant claims chunks from the front of its own
// range, halving the chunk size from range/2 down toward the requested
// grain (the OpenMP `schedule(guided)` decay), and a participant whose
// range is empty steals the upper half of a random victim's remaining
// range. Both owner claims and steals are CASes on a single packed
// {lo,hi} word per participant, so the range state is always
// consistent; there is no shared cursor for every worker to contend on.
//
// A Pool serializes regions: if a region is submitted while another is
// in flight (including nested submissions from inside a region body),
// the submission transparently falls back to spawn-mode execution, so
// concurrent use from multiple goroutines is always safe and never
// deadlocks.
//
// The zero value is not useful; use NewPool or Default.
type Pool struct {
	mu     sync.Mutex // held for the duration of a region
	width  int        // max participants, including the submitter
	wake   []chan struct{}
	stop   chan struct{}
	doneCh chan struct{}
	closed atomic.Bool

	pending atomic.Int32
	ranges  []paddedRange

	// Region state, published to workers via the wake-channel sends.
	body     func(lo, hi, tid int)
	grain    int
	rthreads int

	// Scheduler counters (see counters.go): per-participant padded
	// blocks written with plain increments on the hot path, merged
	// under mu; region/wake tallies guarded by mu; the two region
	// outcomes decided without the lock are atomics.
	counters      []workerCounters
	regions       int64
	wakes         int64
	inlineRegions atomic.Int64
	spawnRegions  atomic.Int64

	// latency, when set, receives the wall time of every scheduled
	// region (pooled and spawn paths; the inline fast path stays
	// untimed — it is a plain function call and a clock read would be
	// its dominant cost). Swappable at any time, including mid-run.
	latency atomic.Pointer[observe.Histogram]
}

// SetRegionLatency registers h to receive per-region wall-time
// observations; nil detaches. Safe to call concurrently with regions
// in flight — attachment is a single atomic pointer swap.
func (p *Pool) SetRegionLatency(h *observe.Histogram) {
	p.latency.Store(h)
}

// paddedRange is one participant's claimable range, packed lo<<32|hi in
// a single CAS-able word, padded to a cache line so owner claims and
// thief CASes on different participants never share a line. rng is the
// owner-only victim-selection state.
//
//gvevet:padded
type paddedRange struct {
	r   atomic.Uint64
	rng uint64
	_   [48]byte
}

// maxPackedN bounds the range packing: lo and hi must each fit in 32
// bits. Larger iteration spaces fall back to spawn-mode scheduling.
const maxPackedN = 1 << 31

//gvevet:contract inline noescape nobounds
func pack(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(hi) }

//gvevet:contract inline noescape nobounds
func unpack(p uint64) (lo, hi int) { return int(p >> 32), int(p & 0xffffffff) }

// NewPool returns a pool whose regions can use up to `threads`
// participants (threads-1 persistent workers plus the submitting
// goroutine). threads <= 0 means DefaultThreads. The pool grows its
// worker set on demand if a region requests more parallelism, so the
// initial size is a hint, not a cap.
func NewPool(threads int) *Pool {
	if threads <= 0 {
		threads = DefaultThreads()
	}
	p := &Pool{
		stop:   make(chan struct{}),
		doneCh: make(chan struct{}, 1),
	}
	p.grow(threads)
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the shared process-wide pool, created on first use
// with DefaultThreads workers. The package-level For/ForEach/Blocks/
// scan/fill/reduction functions all run on it.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(DefaultThreads()) })
	return defaultPool
}

// Threads returns the current maximum number of participants per
// region, including the submitting goroutine.
func (p *Pool) Threads() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.width
}

// Close terminates the persistent workers. Subsequent regions fall back
// to spawn-mode execution, so a closed pool remains usable, just
// without the persistence win. Close must not race with an in-flight
// region.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.stop)
	}
}

// grow extends the worker set so regions can use up to `threads`
// participants. Caller must hold p.mu (or be the constructor).
func (p *Pool) grow(threads int) {
	p.ranges = make([]paddedRange, threads)
	counters := make([]workerCounters, threads)
	copy(counters, p.counters) // accumulated counts survive a grow
	p.counters = counters
	for w := len(p.wake); w < threads-1; w++ {
		ch := make(chan struct{}, 1)
		p.wake = append(p.wake, ch)
		go p.workerLoop(w+1, ch)
	}
	p.width = threads
}

func (p *Pool) workerLoop(tid int, wake chan struct{}) {
	for {
		select {
		case <-p.stop:
			return
		case <-wake:
			p.work(tid)
			if p.pending.Add(-1) == 0 {
				p.doneCh <- struct{}{}
			}
		}
	}
}

// For runs body(lo, hi, tid) over chunked sub-ranges of [0, n) using
// `threads` participants with guided scheduling plus work-stealing.
// tid identifies the participant in [0, threads) so callers can index
// per-thread scratch state (hashtables, RNG streams) without sharing.
//
// threads <= 1 runs the whole range inline on tid 0. grain <= 0 uses
// DefaultGrain. If the pool is busy (concurrent or nested region) or
// closed, the region runs in spawn mode with identical semantics.
//
// A panic in body on the calling goroutine reaches the caller once
// every worker has left the region; a panic on a worker goroutine
// ends the process.
func (p *Pool) For(n, threads, grain int, body func(lo, hi, tid int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if threads <= 1 || n <= grain {
		p.noteInline()
		body(0, n, 0)
		return
	}
	h := p.latency.Load()
	var start time.Time
	if h != nil {
		start = time.Now()
	}
	if n >= maxPackedN || p.closed.Load() || !p.mu.TryLock() {
		p.noteSpawn()
		forSpawn(n, threads, grain, body)
	} else {
		p.forLocked(n, threads, grain, body)
	}
	if h != nil {
		h.ObserveDuration(time.Since(start))
	}
}

// forLocked runs one region on the persistent workers; the caller holds
// p.mu, which forLocked releases when the region completes. A panic in
// the submitter's own share (tid 0) propagates only after the region
// has drained: releasing p.mu while workers still run the old body
// would let them claim the next region's ranges and count themselves
// out of its pending total.
func (p *Pool) forLocked(n, threads, grain int, body func(lo, hi, tid int)) {
	defer p.mu.Unlock()
	if threads > p.width {
		p.grow(threads)
	}
	if threads > n {
		threads = n
	}
	p.regions++
	p.wakes += int64(threads - 1)
	p.body, p.grain, p.rthreads = body, grain, threads
	for i := 0; i < threads; i++ {
		p.ranges[i].r.Store(pack(i*n/threads, (i+1)*n/threads))
	}
	p.pending.Store(int32(threads))
	for w := 0; w < threads-1; w++ {
		p.wake[w] <- struct{}{}
	}
	defer p.drain()
	p.work(0)
}

// drain retires the submitter from the current region and waits until
// every worker has left it. Once the submitter stops claiming, the
// workers still finish: each drains its own range, steals what it can
// and leaves when a sweep finds nothing.
func (p *Pool) drain() {
	if p.pending.Add(-1) == 0 {
		p.doneCh <- struct{}{}
	}
	<-p.doneCh
	p.body = nil
}

// work participates in the current region as tid: drain the own range
// with guided chunks, then steal until nothing claimable remains.
//
//gvevet:contract noescape
func (p *Pool) work(tid int) {
	body, grain, t := p.body, p.grain, p.rthreads
	self := &p.ranges[tid].r
	wc := &p.counters[tid]
	for {
		for {
			packed := self.Load()
			lo, hi := unpack(packed)
			size := hi - lo
			if size <= 0 {
				break
			}
			c := size >> 1 // guided: halve toward grain
			if c < grain {
				c = grain
			}
			if c > size {
				c = size
			}
			if self.CompareAndSwap(packed, pack(lo+c, hi)) {
				wc.chunks++
				wc.items += int64(c)
				body(lo, lo+c, tid)
			}
		}
		if !p.steal(tid, t) {
			return
		}
	}
}

// steal claims the upper half of a random victim's remaining range and
// installs it as tid's own range. Returns false when a full sweep finds
// nothing worth stealing — every remaining item is owned by a
// participant that will execute it.
//
//gvevet:contract noescape
func (p *Pool) steal(tid, t int) bool {
	wc := &p.counters[tid]
	wc.stealAttempts++
	// Cheap owner-local xorshift-free LCG for victim selection.
	seed := &p.ranges[tid].rng
	*seed = *seed*6364136223846793005 + 1442695040888963407
	start := int((*seed >> 33) % uint64(t))
	for i := 0; i < t; i++ {
		v := start + i
		if v >= t {
			v -= t
		}
		if v == tid {
			continue
		}
		victim := &p.ranges[v].r
		for {
			packed := victim.Load()
			lo, hi := unpack(packed)
			if hi-lo < 2 {
				break // single items are cheapest left to their owner
			}
			mid := lo + (hi-lo)/2
			if victim.CompareAndSwap(packed, pack(lo, mid)) {
				p.ranges[tid].r.Store(pack(mid, hi))
				wc.steals++
				wc.itemsStolen += int64(hi - mid)
				return true
			}
		}
	}
	return false
}

// ForEach runs body(i, tid) for every i in [0, n) on the pool.
func (p *Pool) ForEach(n, threads, grain int, body func(i, tid int)) {
	p.For(n, threads, grain, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			body(i, tid)
		}
	})
}

// Blocks runs body(block, lo, hi) for `threads` contiguous equal blocks
// of [0, n). The block → range mapping is a pure function of (n,
// threads), so per-block results (scan partials, reduction partials)
// are deterministic no matter which worker executes which block.
func (p *Pool) Blocks(n, threads int, body func(block, lo, hi int)) {
	if n <= 0 {
		return
	}
	if threads <= 1 {
		body(0, 0, n)
		return
	}
	if threads > n {
		threads = n
	}
	t := threads
	p.For(t, t, 1, func(lo, hi, _ int) {
		for b := lo; b < hi; b++ {
			body(b, b*n/t, (b+1)*n/t)
		}
	})
}

// FillUint32 sets every element of a to v, on the pool. Plain stores
// by contract: each worker owns a disjoint chunk, and callers run the
// fill barrier-separated from any phase that touches a atomically.
//
//gvevet:exclusive disjoint chunks, barrier-separated from atomic phases
func (p *Pool) FillUint32(a []uint32, v uint32, threads int) {
	p.For(len(a), threads, 1<<14, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			a[i] = v
		}
	})
}

// FillFloat64 sets every element of a to v, on the pool.
func (p *Pool) FillFloat64(a []float64, v float64, threads int) {
	p.For(len(a), threads, 1<<14, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			a[i] = v
		}
	})
}

// Iota fills a with the identity permutation a[i] = i, on the pool.
// This is the `C' ← [0..|V'|)` initialization in Algorithm 1.
func (p *Pool) Iota(a []uint32, threads int) {
	p.For(len(a), threads, 1<<14, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			a[i] = uint32(i)
		}
	})
}

// forSpawn is the spawn-per-region fallback scheduler (the pre-pool
// implementation): `threads` fresh goroutines race a single shared
// atomic cursor in grain-sized chunks. It serves oversized iteration
// spaces, regions submitted while the pool is busy, and the
// BenchmarkForSpawn baseline.
func forSpawn(n, threads, grain int, body func(lo, hi, tid int)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi, tid)
			}
		}(t)
	}
	wg.Wait()
}
