// Package parallel provides the shared-memory parallel runtime that
// GVE-Leiden is built on: a persistent work-stealing worker pool (see
// Pool) executing dynamically scheduled parallel-for regions — the Go
// equivalent of an OpenMP thread team running `schedule(guided)` loops
// — plus parallel prefix sums, parallel reductions, and atomic float64
// arithmetic.
//
// Every parallel primitive names the *Pool it runs on, as its receiver
// (Pool.For, Pool.FillUint32, ...) or its first argument
// (ExclusiveScanOn, SumFloat64On); SpawnFor, the pool-free baseline,
// is the one exception. Callers that do not own a pool use the shared
// process-default one (Default); performance-critical paths thread an
// explicit *Pool so one algorithm run reuses one set of workers
// end-to-end.
//
// All primitives accept an explicit thread count so that strong-scaling
// experiments (Figure 9 of the paper) can sweep it; a thread count of 0
// or 1 runs the sequential fast path with zero scheduling overhead,
// which is the single-thread baseline of the scaling study.
package parallel

import (
	"runtime"
)

// DefaultThreads returns the number of worker threads to use when the
// caller does not specify one: GOMAXPROCS, as set for the process.
func DefaultThreads() int {
	return runtime.GOMAXPROCS(0)
}

// DefaultGrain is the default dynamic-scheduling chunk size, chosen like
// OpenMP's typical dynamic grain for graph workloads: large enough to
// amortize the chunk-claim atomic, small enough to balance skewed
// per-vertex work (power-law degrees).
const DefaultGrain = 1024

// SpawnFor runs a parallel-for by spawning fresh goroutines over a
// shared atomic chunk cursor — the pre-pool runtime, kept as the
// baseline for the pool-vs-spawn benchmarks and as the fallback for
// regions submitted while a pool is busy or closed. Same contract as
// Pool.For.
func SpawnFor(n, threads, grain int, body func(lo, hi, tid int)) {
	forSpawn(n, threads, grain, body)
}
