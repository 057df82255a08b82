package core

import (
	"time"

	"gveleiden/internal/color"
	"gveleiden/internal/graph"
	"gveleiden/internal/observe"
	"gveleiden/internal/quality"
)

// Louvain runs GVE-Louvain: the same optimized machinery as Leiden —
// asynchronous local moving with flag-based pruning, per-thread
// collision-free hashtables, prefix-sum CSR aggregation, threshold
// scaling, aggregation tolerance — but without the refinement phase.
// The paper's optimizations were originally developed for this
// algorithm [23]; it serves here as the ablation baseline that can
// produce internally-disconnected communities (Figure 6d contrast).
func Louvain(g *graph.CSR, opt Options) *Result {
	opt = opt.normalize()
	ws := newWorkspace(g, opt)
	run := observe.Span{}
	if opt.Tracer != nil {
		run = opt.Tracer.BeginArgs("louvain", 0, map[string]any{
			"vertices": g.NumVertices(), "arcs": g.NumArcs(), "threads": opt.Threads,
		})
	}
	res := ws.louvain(g)
	run.End()
	return res
}

// louvain is leiden's counterpart for Louvain: the passes, the optional
// final refinement, and the densified result.
func (ws *workspace) louvain(g *graph.CSR) *Result {
	start := now()
	runLouvain(g, ws)
	if ws.opt.FinalRefine {
		ws.finalRefine(g)
	}
	return finishResult(g, ws, ws.renumber(ws.top, ws.n0), time.Since(start))
}

func runLouvain(g *graph.CSR, ws *workspace) {
	opt := ws.opt
	cur := g
	arcs := g.NumArcs()
	tau := opt.Tolerance
	opt.Pool.Iota(ws.top[:ws.n0], opt.Threads)
	for pass := 0; pass < opt.MaxPasses; pass++ {
		var ps PassStats
		n := cur.NumVertices()
		ps.Vertices = n
		ps.Arcs = arcs
		psp := ws.beginPass("louvain", pass, n, ps.Arcs)

		t0 := now()
		if !ws.startPass(cur, pass, nil) { // Louvain passes start singleton
			ws.endPass("louvain", pass, &ps, psp)
			return
		}
		ps.Other += time.Since(t0)
		var coloring *color.Coloring
		if opt.Deterministic {
			t0 = now()
			coloring = color.GreedyOn(opt.Pool, cur, opt.Threads)
			ps.Color = time.Since(t0)
		}

		t0 = now()
		sp := opt.Tracer.Begin("move", 0)
		var li int
		if coloring != nil {
			li = ws.movePhaseColored(cur, tau, coloring, pass, &ps)
		} else {
			li = ws.movePhase(cur, tau, pass, &ps)
		}
		sp.End()
		ps.MoveIterations = li
		ps.Move = time.Since(t0)

		comm := ws.comm[:n]
		if li <= 1 && pass > 0 {
			// Converged: the previous level's communities stand.
			t0 = now()
			ws.lookupDendrogram(comm)
			ps.Other += time.Since(t0)
			ws.endPass("louvain", pass, &ps, psp)
			return
		}

		t0 = now()
		nComms := ws.renumber(comm, n)
		ps.Communities = nComms
		ws.lookupDendrogram(comm)
		lowShrink := float64(nComms)/float64(n) > opt.AggregationTolerance
		ps.Other += time.Since(t0)
		if lowShrink {
			ws.endPass("louvain", pass, &ps, psp)
			return
		}

		t0 = now()
		sp = opt.Tracer.Begin("aggregate", 0)
		next, nextArcs, occ := ws.aggregate(cur, nComms)
		ws.sizes.rollup(opt, comm, nComms)
		sp.End()
		ps.AggOccupancy = occ
		ps.Aggregate = time.Since(t0)
		if opt.Inspector != nil {
			// Louvain has no separate refinement: the renumbered move
			// partition is what aggregation grouped by.
			opt.Inspector(LevelEvent{
				Algorithm: "louvain", Pass: pass, Graph: cur,
				Refined: comm, Communities: nComms, Aggregated: next,
			})
		}
		cur, arcs = next, nextArcs
		tau /= opt.ToleranceDrop
		ws.endPass("louvain", pass, &ps, psp)
	}
}

// Quality re-exported helpers so callers of core don't need the quality
// package for the common case.

// ModularityOf returns the modularity of an arbitrary membership on g.
func ModularityOf(g *graph.CSR, membership []uint32) float64 {
	return quality.Modularity(g, membership)
}
