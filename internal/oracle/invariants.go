package oracle

import (
	"math"
	"slices"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
	"gveleiden/internal/quality"
)

// CheckPartition verifies that membership is a valid community
// assignment for g: one label per vertex, every label in [0, n). With
// dense set, labels must additionally cover [0, k) contiguously for
// some k — the contract of every renumbered partition the algorithms
// emit.
func CheckPartition(r *Report, g *graph.CSR, membership []uint32, dense bool) {
	r.Checks++
	if err := quality.ValidatePartition(g, membership); err != nil {
		r.addf("partition-validity", "%v", err)
		return
	}
	if !dense || len(membership) == 0 {
		return
	}
	max := uint32(0)
	for _, c := range membership {
		if c > max {
			max = c
		}
	}
	seen := make([]bool, max+1)
	for _, c := range membership {
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			r.addf("partition-validity", "labels not dense: %d unused but %d present", c, max)
			return
		}
	}
}

// CheckRefinement verifies Algorithm 3's containment invariant: every
// community of fine lies entirely inside one community of coarse.
func CheckRefinement(r *Report, fine, coarse []uint32) {
	r.Checks++
	if len(fine) != len(coarse) {
		r.addf("refinement-containment", "partition lengths differ: %d vs %d", len(fine), len(coarse))
		return
	}
	if !quality.IsRefinementOf(fine, coarse) {
		r.addf("refinement-containment", "a refined community spans multiple community bounds")
	}
}

// CheckConnected verifies that no community of membership is internally
// disconnected in g — the paper's headline guarantee for Leiden (it
// deliberately does NOT hold for Louvain, the Figure 6d contrast).
func CheckConnected(r *Report, g *graph.CSR, membership []uint32, threads int) {
	CheckConnectedOn(r, nil, g, membership, threads)
}

// CheckConnectedOn is CheckConnected on pool p (nil = default pool).
func CheckConnectedOn(r *Report, p *parallel.Pool, g *graph.CSR, membership []uint32, threads int) {
	r.Checks++
	connected(r, quality.CountDisconnectedOn(p, g, membership, threads))
}

// CheckConnectedIn is CheckConnectedOn through the members index m of
// membership (quality.IndexMembers), for a caller that keeps the index.
func CheckConnectedIn(r *Report, p *parallel.Pool, g *graph.CSR, membership []uint32, m quality.Members, threads int) {
	r.Checks++
	connected(r, quality.CountDisconnectedIn(p, g, membership, m, threads))
}

func connected(r *Report, ds quality.DisconnectedStats) {
	if ds.Disconnected > 0 {
		r.addf("connectivity", "%d of %d communities internally disconnected", ds.Disconnected, ds.Communities)
	}
}

// CheckCSR verifies structural well-formedness of a (possibly holey)
// CSR: monotone offsets, holey counts within their slots, in-range arc
// targets, a symmetric weighted arc multiset, and finite weights; a
// holey CSR's symmetry and weights are checked as its compacted copy
// would hold them.
func CheckCSR(r *Report, g *graph.CSR) {
	CheckCSROn(r, nil, g, 0)
}

// CheckCSROn is CheckCSR running its passes on pool p (nil = default
// pool) with up to threads participants (≤ 0: the default count). It
// reports what CheckCSR reports at every thread count.
func CheckCSROn(r *Report, p *parallel.Pool, g *graph.CSR, threads int) {
	r.Checks++
	if p == nil {
		p = parallel.Default()
	}
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	if err := g.ValidateOn(p, threads); err != nil {
		r.addf("csr-wellformed", "%v", err)
		return
	}
	if g.Counts == nil {
		ws := g.Weights
		if i := parallel.FirstOn(p, len(ws), threads, 1<<14, func(lo, hi, _ int) int {
			if k := slices.IndexFunc(ws[lo:hi], nonFinite); k >= 0 {
				return lo + k
			}
			return hi
		}); i < len(ws) {
			r.addf("csr-wellformed", "non-finite weight %g at arc %d", ws[i], i)
		}
		return
	}
	// Validate checks symmetry only on compact graphs; a holey CSR gets
	// it checked here, through its rows.
	if err := g.SymmetryOn(p, threads); err != nil {
		r.addf("csr-wellformed", "compacted: %v", err)
		return
	}
	n := g.NumVertices()
	v := parallel.FirstOn(p, n, threads, 512, func(lo, hi, _ int) int {
		for v := lo; v < hi; v++ {
			if _, ws := g.Neighbors(uint32(v)); slices.ContainsFunc(ws, nonFinite) {
				return v
			}
		}
		return hi
	})
	if v == n {
		return
	}
	// Name the arc by its index in the compacted copy.
	at := 0
	for u := 0; u < v; u++ {
		at += int(g.Counts[u])
	}
	_, ws := g.Neighbors(uint32(v))
	k := slices.IndexFunc(ws, nonFinite)
	r.addf("csr-wellformed", "non-finite weight %g at arc %d", ws[k], at+k)
}

func nonFinite(w float32) bool {
	return math.IsNaN(float64(w)) || math.IsInf(float64(w), 0)
}

// CheckWeightConservation verifies that aggregation preserved the total
// edge weight: before and after must agree to within a relative
// tolerance (float32 arc storage rounds each aggregated weight once; on
// integer-weight graphs conservation is exact).
func CheckWeightConservation(r *Report, before, after *graph.CSR, context string) {
	r.Checks++
	wb, wa := before.TotalWeight(), after.TotalWeight()
	scale := math.Abs(wb)
	if scale < 1 {
		scale = 1
	}
	if math.Abs(wb-wa) > 1e-6*scale {
		r.addf("weight-conservation", "%s: total weight %g before vs %g after aggregation", context, wb, wa)
	}
}

// CheckDeltaQ verifies the ΔQ accounting of a finished run: starting
// from the singleton partition, the per-pass local-moving gains
// reported in res.Stats must telescope to the final quality,
//
//	Q_final = Q_singleton + Σ_pass ΔQ_pass,
//
// because each pass warm-starts from the previous pass's move partition
// (refinement's internal gains cancel when the next pass regroups by
// move labels). The check is asymmetric: the final quality may exceed
// the prediction by the unreported gain of splitting disconnected
// communities (a rare, strictly-positive correction), but reported
// gains that the final quality cannot cash — the classic double-counted
// parallel ΔQ bug — fail at tol; gross under-reporting fails at a loose
// 0.05.
//
// Valid for Louvain and for Leiden with move-based labels (the
// default); refine-based labels restart passes from singletons, which
// breaks the telescope by design.
func CheckDeltaQ(r *Report, g *graph.CSR, opt core.Options, res *core.Result, tol float64) {
	r.Checks++
	n := g.NumVertices()
	singleton := make([]uint32, n)
	for i := range singleton {
		singleton[i] = uint32(i)
	}
	gamma := opt.Resolution
	if !(gamma > 0) {
		gamma = 1
	}
	var q0 float64
	if opt.Objective == core.ObjectiveCPM {
		q0 = quality.CPM(g, singleton, gamma)
	} else {
		q0 = quality.ModularityResolution(g, singleton, gamma)
	}
	var gain float64
	for _, ps := range res.Stats.Passes {
		gain += ps.DeltaQ
	}
	predicted := q0 + gain
	if res.Quality < predicted-tol {
		r.addf("delta-q-accounting", "reported gains overstate quality: singleton %g + ΣΔQ %g = %g, but final quality is %g (deficit %g)",
			q0, gain, predicted, res.Quality, predicted-res.Quality)
	} else if res.Quality > predicted+tol+0.05 {
		r.addf("delta-q-accounting", "reported gains understate quality: singleton %g + ΣΔQ %g = %g, but final quality is %g",
			q0, gain, predicted, res.Quality)
	}
}
