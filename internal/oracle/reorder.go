package oracle

import (
	"math"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/order"
	"gveleiden/internal/quality"
)

// reorderTol bounds how far a deterministic run on the degree-reordered
// graph may land from the run on the original numbering. Reordering
// changes iteration order, so the two runs legitimately explore
// different move sequences; what must hold is that the round-tripped
// partition is valid on the original graph, scores identically on both
// numberings (relabeling invariance), and lands in the same quality
// regime as the unordered run. Same band the differential checks use.
const reorderQualityTol = 0.05

// CheckReorderRoundTrip exercises the degree-ordered locality transform
// end to end: permute g hub-first with order.ByDegreeDescCounting, run
// deterministic Leiden on the reordered graph, translate the membership
// back through the permutation, and verify the round-tripped partition
// against the original graph — validity, connectivity, score invariance
// under the relabeling, and quality parity with the unordered run.
func CheckReorderRoundTrip(r *Report, g *graph.CSR, opt core.Options, threads int) {
	perm := order.ByDegreeDescCounting(g)

	r.Checks++
	rg, err := graph.Permute(g, perm)
	if err != nil {
		r.addf("reorder-roundtrip", "permute failed: %v", err)
		return
	}
	CheckCSR(r, rg)
	CheckWeightConservation(r, g, rg, "reorder")

	opt.Deterministic = true
	opt.Threads = threads
	res := core.Leiden(rg, opt)

	// Membership on the reordered graph, translated back: vertex v of the
	// original graph is vertex perm[v] of the reordered one.
	back := order.ApplyToMembership(perm, res.Membership)
	if checkPartition(r, g, back, true) {
		CheckConnected(r, g, back, threads)
	}

	// Score invariance: the translated partition must score exactly like
	// the partition did on the reordered graph (same structure, renamed
	// vertices), up to reduction-order rounding.
	r.Checks++
	q, bq := quality.Modularity(rg, res.Membership), quality.Modularity(g, back)
	if math.Abs(q-bq) > relabelTol {
		r.addf("reorder-roundtrip", "modularity %g on reordered graph became %g after round-trip", q, bq)
	}

	// Quality parity: hub-first numbering is a locality transform, not an
	// algorithm change — the reordered run must find communities in the
	// same quality regime as the unordered run.
	r.Checks++
	base := core.Leiden(g, opt)
	if math.Abs(base.Modularity-bq) > reorderQualityTol {
		r.addf("reorder-roundtrip", "reordered run modularity %g deviates from unordered %g by more than %g",
			bq, base.Modularity, reorderQualityTol)
	}

	// The counting sort must agree with the comparison sort it replaces.
	r.Checks++
	ref := order.ByDegreeDesc(g)
	for v := range perm {
		if perm[v] != ref[v] {
			r.addf("reorder-roundtrip", "ByDegreeDescCounting differs from ByDegreeDesc at vertex %d: %d vs %d",
				v, perm[v], ref[v])
			break
		}
	}
}
