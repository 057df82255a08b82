package core

import (
	"time"

	"gveleiden/internal/graph"
)

// finalRefine implements multilevel refinement (related work [7, 20,
// 25]: Rotta & Noack's refinement of the flat partition): after the
// coarsening passes finish, the flat membership is re-optimized by
// extra local-moving sweeps over the *original* graph, where individual
// vertices — not whole super-vertices — may switch communities. Every
// accepted move has positive gain, so quality is non-decreasing; the
// warm start makes the sweeps cheap.
func (ws *workspace) finalRefine(g *graph.CSR) {
	n := ws.n0
	if n == 0 || ws.m == 0 {
		return
	}
	var ps PassStats
	ps.Vertices = n
	ps.Arcs = g.NumArcs()
	pass := len(ws.stats.Passes)
	psp := ws.beginPass("final-refine", pass, n, ps.Arcs)
	t0 := now()
	opt := ws.opt
	ws.vertexWeights(g, ws.k[:n])
	ws.sizes.unit(opt, n)
	ws.initialCommunities(n, ws.top)
	ps.Other = time.Since(t0)

	// The flat partition is already near-optimal: sweep at the tight
	// tolerance the threshold-scaled passes end with.
	tau := opt.Tolerance
	for i := 0; i < 4; i++ {
		tau /= opt.ToleranceDrop
	}
	ws.localMove(g, tau, pass, &ps)
	copy(ws.top, ws.comm[:n])
	ws.endPass("final-refine", pass, &ps, psp)
}
