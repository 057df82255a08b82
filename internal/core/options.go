// Package core implements GVE-Leiden, the paper's contribution: a fast
// shared-memory parallel Leiden algorithm (Algorithms 1-4) with
// asynchronous local moving, greedy or randomized constrained
// refinement, CSR-based aggregation with parallel prefix sums and
// per-thread collision-free hashtables, flag-based vertex pruning,
// threshold scaling, and an aggregation tolerance. It also implements
// GVE-Louvain (the same machinery without the refinement phase), from
// which the paper's optimizations were extended.
package core

import (
	"math"

	"gveleiden/internal/observe"
	"gveleiden/internal/parallel"
)

// RefinementMode selects how the refinement phase chooses the target
// sub-community for an isolated vertex (§4.1 of the paper).
type RefinementMode int

const (
	// RefineGreedy picks the neighbouring sub-community (within the
	// community bound) with maximum delta-modularity. The paper finds
	// this fastest and highest-quality on average (Figures 1-2).
	RefineGreedy RefinementMode = iota
	// RefineRandom picks a sub-community with probability proportional
	// to the (positive) delta-modularity of the move, using xorshift32
	// generators — the behaviour of the original Leiden algorithm.
	RefineRandom
)

func (m RefinementMode) String() string {
	switch m {
	case RefineGreedy:
		return "greedy"
	case RefineRandom:
		return "random"
	}
	return "unknown"
}

// LabelMode selects the community labels given to super-vertices upon
// aggregation (Figures 3-4 of the paper).
type LabelMode int

const (
	// LabelMove starts super-vertices in the communities found by the
	// local-moving phase — the approach recommended by Traag et al. and
	// the paper's default.
	LabelMove LabelMode = iota
	// LabelRefine starts super-vertices as singletons (labels from the
	// refinement phase).
	LabelRefine
)

func (m LabelMode) String() string {
	switch m {
	case LabelMove:
		return "move-based"
	case LabelRefine:
		return "refine-based"
	}
	return "unknown"
}

// Variant selects the effort level of §4.1: the medium and heavy
// variants disable threshold scaling and (for heavy) also the
// aggregation tolerance, trading runtime for (the paper finds, little)
// quality.
type Variant int

const (
	// VariantLight is the default: threshold scaling from Tolerance with
	// ToleranceDrop, aggregation tolerance enabled.
	VariantLight Variant = iota
	// VariantMedium disables threshold scaling: every pass converges to
	// the tight tolerance Tolerance/ToleranceDrop⁴.
	VariantMedium
	// VariantHeavy additionally disables the aggregation tolerance, so
	// passes continue even when communities barely shrink.
	VariantHeavy
)

func (v Variant) String() string {
	switch v {
	case VariantLight:
		return "light"
	case VariantMedium:
		return "medium"
	case VariantHeavy:
		return "heavy"
	}
	return "unknown"
}

// Objective selects the quality function the optimizer maximizes.
type Objective int

const (
	// ObjectiveModularity optimizes generalized modularity (Equation 1
	// with resolution γ) — the paper's setting. Its gain (Equation 2)
	// reads only K' and Σ', so the run keeps no size state.
	ObjectiveModularity Objective = iota
	// ObjectiveCPM optimizes the Constant Potts Model (Traag et al.
	// 2011), the resolution-limit-free quality function the paper
	// points to in §2. γ is the CPM density threshold: a community is
	// worth keeping only if its internal edge density exceeds γ. Only
	// CPM runs allocate and maintain the vertex and community sizes
	// its gain ΔH reads (sizeState, 24 bytes per input vertex).
	ObjectiveCPM
)

func (o Objective) String() string {
	switch o {
	case ObjectiveModularity:
		return "modularity"
	case ObjectiveCPM:
		return "cpm"
	}
	return "unknown"
}

// Options configures a Leiden or Louvain run. The zero value is not
// useful; start from DefaultOptions.
type Options struct {
	// Threads is the number of worker threads; 0 means GOMAXPROCS.
	Threads int
	// MaxPasses caps the number of passes (super-vertex levels).
	MaxPasses int
	// MaxIterations caps local-moving iterations per pass (paper: 20).
	MaxIterations int
	// Tolerance is the initial per-iteration convergence threshold τ on
	// the total delta-modularity of an iteration (paper: 0.01).
	Tolerance float64
	// ToleranceDrop divides τ after every pass — threshold scaling
	// (paper: 10).
	ToleranceDrop float64
	// AggregationTolerance stops the algorithm when the pass shrinks the
	// vertex count by too little: |Γ|/|V'| > τ_agg (paper: 0.8).
	AggregationTolerance float64
	// Resolution is the γ of the quality function: generalized
	// modularity's resolution (1 = classic) or CPM's density threshold.
	Resolution float64
	// Objective selects modularity (default) or CPM optimization, and
	// with it whether the run keeps CPM's size state (CPM only).
	Objective Objective
	// DisablePruning turns off flag-based vertex pruning, so every
	// iteration of the local-moving phase rescans every vertex. Exists
	// for the ablation study of the pruning optimization.
	DisablePruning bool
	// DisableFlatScan turns off every flat-array community-weight
	// accumulation, sending it to the per-thread hashtable: the scans of
	// low-degree vertices (degree ≤ hashtable.FlatCap) in local moving
	// and greedy refinement, and aggregation's per-community sums for
	// communities of total degree ≤ FlatCap. Decisions and aggregated
	// graphs do not change. Exists for the ablation study of the
	// flat-scan optimization and as the dense reference its tests
	// compare against.
	DisableFlatScan bool
	// FinalRefine runs multilevel refinement (related work [7,20,25]):
	// after the passes, extra local-moving sweeps over the original
	// graph let individual vertices switch between the final
	// communities. Quality is non-decreasing; costs roughly one more
	// first-pass local-moving phase.
	FinalRefine bool
	// Deterministic processes color classes (Jones-Plassmann coloring)
	// with frozen decision kernels, making the result a pure function of
	// the graph and options — identical for any thread count — on
	// integer-weight graphs. Costs a coloring per pass and forces greedy
	// refinement. See internal/core/deterministic.go.
	Deterministic bool
	// Refinement selects greedy or randomized refinement.
	Refinement RefinementMode
	// Labels selects move-based or refine-based super-vertex labels.
	Labels LabelMode
	// Variant selects light / medium / heavy effort.
	Variant Variant
	// Seed seeds the per-thread xorshift32 streams used by randomized
	// refinement.
	Seed uint64
	// Grain overrides the dynamic-scheduling chunk size (0 = default).
	Grain int
	// Pool is the persistent worker pool that executes every parallel
	// region of the run, so one run reuses one set of workers
	// end-to-end instead of spawning goroutines per region. nil uses
	// the shared process-default pool, which is right for almost all
	// callers; pass a dedicated pool to isolate concurrent runs.
	Pool *parallel.Pool
	// Observer, when non-nil, receives a pass event after every pass
	// and an iteration event after every local-moving iteration — the
	// hook behind progress reporting on long runs. nil (the default)
	// keeps the hot path on a no-op fast path: event sites cost one
	// pointer comparison and build no event values.
	Observer observe.Observer
	// Tracer, when non-nil, records a span for the whole run, each
	// pass, each phase, and each local-moving iteration; write it out
	// with Tracer.Write for a Chrome-trace/Perfetto-compatible profile
	// of the run. nil disables tracing at the same no-op cost.
	Tracer *observe.Tracer
	// Inspector, when non-nil, receives a LevelEvent after every
	// aggregating pass — the hook the invariant-checking oracle
	// (internal/oracle) attaches to. The event aliases live workspace
	// memory; see LevelEvent. nil (the default) costs one pointer
	// comparison per pass.
	Inspector LevelInspector
}

// DefaultOptions returns the configuration evaluated in the paper:
// greedy refinement, move-based labels, light variant, τ=0.01 with drop
// rate 10, τ_agg=0.8, at most 10 passes of at most 20 iterations.
func DefaultOptions() Options {
	return Options{
		Threads:              0,
		MaxPasses:            10,
		MaxIterations:        20,
		Tolerance:            0.01,
		ToleranceDrop:        10,
		AggregationTolerance: 0.8,
		Resolution:           1.0,
		Refinement:           RefineGreedy,
		Labels:               LabelMove,
		Variant:              VariantLight,
		Seed:                 0x9E3779B97F4A7C15,
	}
}

// normalize fills in derived values and applies the variant rules.
func (o Options) normalize() Options {
	if o.Threads <= 0 {
		o.Threads = parallel.DefaultThreads()
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = 10
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 20
	}
	// The comparisons are phrased positively (!(x > 0) rather than
	// x <= 0) so NaN — for which every comparison is false — falls into
	// the default branch instead of slipping through and poisoning every
	// ΔQ downstream; the MaxFloat64 bound likewise rejects +Inf.
	if !(o.Tolerance > 0 && o.Tolerance < math.MaxFloat64) {
		o.Tolerance = 0.01
	}
	if !(o.ToleranceDrop >= 1 && o.ToleranceDrop < math.MaxFloat64) {
		o.ToleranceDrop = 10
	}
	if !(o.AggregationTolerance > 0 && o.AggregationTolerance <= 1) {
		o.AggregationTolerance = 0.8
	}
	if !(o.Resolution > 0 && o.Resolution < math.MaxFloat64) {
		o.Resolution = 1
	}
	if o.Grain <= 0 {
		o.Grain = parallel.DefaultGrain
	}
	if o.Pool == nil {
		o.Pool = parallel.Default()
	}
	if o.Deterministic {
		o.Refinement = RefineGreedy // randomized refinement is inherently order-dependent
	}
	switch o.Variant {
	case VariantMedium:
		// No threshold scaling: run every pass at the tight tolerance
		// the light variant would only reach on its final passes.
		o.Tolerance = o.Tolerance / (o.ToleranceDrop * o.ToleranceDrop * o.ToleranceDrop * o.ToleranceDrop)
		o.ToleranceDrop = 1
	case VariantHeavy:
		o.Tolerance = o.Tolerance / (o.ToleranceDrop * o.ToleranceDrop * o.ToleranceDrop * o.ToleranceDrop)
		o.ToleranceDrop = 1
		o.AggregationTolerance = 1 // never stop for low shrink
	}
	return o
}
