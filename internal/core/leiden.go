package core

import (
	"time"

	"gveleiden/internal/graph"
	"gveleiden/internal/observe"
	"gveleiden/internal/quality"
)

// Leiden runs GVE-Leiden (Algorithm 1) on g and returns the detected
// communities with per-phase statistics. The input graph must be
// undirected (symmetric arcs); see graph.Builder, which guarantees it.
//
// Each pass runs the local-moving phase to a tolerance τ, the
// constrained refinement phase, and — unless converged or shrinking too
// little — renumbers the refined communities, updates the top-level
// dendrogram, aggregates communities into super-vertices, and scales the
// threshold (τ /= ToleranceDrop). With move-based labels (the default),
// super-vertices start the next pass grouped by the communities the
// local-moving phase found, as recommended by Traag et al.; with
// refine-based labels they start as singletons.
func Leiden(g *graph.CSR, opt Options) *Result {
	opt = opt.normalize()
	ws := newWorkspace(g, opt)
	run := observe.Span{}
	if opt.Tracer != nil {
		run = opt.Tracer.BeginArgs("leiden", 0, map[string]any{
			"vertices": g.NumVertices(), "arcs": g.NumArcs(), "threads": opt.Threads,
		})
	}
	res := ws.leiden(g)
	run.End()
	return res
}

// leiden runs the passes on g from the state ws was prepared with (cold,
// warm-started, recording the hierarchy), then the final refinement
// when configured, and returns the densified result.
func (ws *workspace) leiden(g *graph.CSR) *Result {
	start := now()
	nComms := runLeiden(g, ws)
	if ws.opt.FinalRefine {
		// Final refinement moves individual vertices and can disconnect a
		// community the same way the move phase can; re-split afterwards.
		ws.finalRefine(g)
		ws.splitConnected(g, ws.top)
		nComms = ws.renumber(ws.top, ws.n0)
	}
	return finishResult(g, ws, nComms, time.Since(start))
}

// runLeiden runs the passes and returns the number of communities; the
// top-level labels it leaves are dense in [0, that number).
func runLeiden(g *graph.CSR, ws *workspace) int {
	opt := ws.opt
	cur := g
	arcs := g.NumArcs()
	tau := opt.Tolerance
	haveInit := false
	if ws.warm != nil {
		copy(ws.initC[:ws.n0], ws.warm)
		haveInit = true
		ws.warm = nil
	}
	opt.Pool.Iota(ws.top[:ws.n0], opt.Threads)
	for pass := 0; pass < opt.MaxPasses; pass++ {
		var ps PassStats
		n := cur.NumVertices()
		ps.Vertices = n
		ps.Arcs = arcs
		psp := ws.beginPass("leiden", pass, n, ps.Arcs)

		t0 := now()
		var init []uint32
		if haveInit {
			init = ws.initC[:n]
		}
		if !ws.startPass(cur, pass, init) {
			ws.endPass("leiden", pass, &ps, psp)
			return n // pass 0 on a graph without edges: top is the identity
		}
		ps.Other += time.Since(t0)
		li, coloring := ws.localMove(cur, tau, pass, &ps)

		// A resumed run's pass 0 inherits its refined partition from the
		// previous dendrogram (inheritUnits), which overwrites every label
		// and needs no singleton start.
		resume := ws.resume
		ws.resume = nil
		t0 = now()
		if resume == nil {
			ws.startRefine(n)
		} else {
			copy(ws.bounds[:n], ws.comm[:n])
		}
		ps.Other += time.Since(t0)

		t0 = now()
		sp := opt.Tracer.Begin("refine", 0)
		var moves int64
		switch {
		case resume != nil:
			moves = ws.inheritUnits(cur, resume)
		case coloring != nil:
			moves = ws.refinePhaseColored(cur, coloring)
		default:
			moves = ws.refinePhase(cur)
		}
		sp.End()
		ps.RefineMoves = moves
		ps.Refine = time.Since(t0)

		if li <= 1 && moves == 0 {
			// Globally converged (Algorithm 1 line 8): the flat result is
			// the local-moving partition of this pass.
			nComms := ws.closeOn(cur, ws.bounds[:n], &ps)
			ws.endPass("leiden", pass, &ps, psp)
			return nComms
		}

		t0 = now()
		nComms := ws.renumberRefined(n)
		ps.Communities = nComms
		ps.Other += time.Since(t0)
		if float64(nComms)/float64(n) > opt.AggregationTolerance {
			// Low shrink (line 10): aggregating buys almost nothing;
			// stop with the move partition, which subsumes the refined one.
			nComms = ws.closeOn(cur, ws.bounds[:n], &ps)
			ws.endPass("leiden", pass, &ps, psp)
			return nComms
		}
		t0 = now()
		comm := ws.comm[:n]
		ws.recordLevel(comm, nComms)
		ws.lookupDendrogram(comm) // line 12: C ← C'[C]
		ps.Other += time.Since(t0)

		t0 = now()
		sp = opt.Tracer.Begin("aggregate", 0)
		next, nextArcs, occ := ws.aggregate(cur, nComms)
		ws.sizes.rollup(opt, comm, nComms)
		sp.End()
		ps.AggOccupancy = occ
		ps.Aggregate = time.Since(t0)
		if opt.Inspector != nil {
			// Pass boundary: every phase's pool barriers are behind us, so
			// the inspector reads a quiescent snapshot.
			opt.Inspector(LevelEvent{
				Algorithm: "leiden", Pass: pass, Graph: cur,
				Move: ws.bounds[:n], Refined: comm,
				Communities: nComms, Aggregated: next,
			})
		}

		t0 = now()
		if opt.Labels == LabelMove {
			ws.moveLabels(n, nComms) // line 14: map super-vertices to move labels
			haveInit = true
		} else {
			haveInit = false
		}
		cur, arcs = next, nextArcs
		tau /= opt.ToleranceDrop // line 15: threshold scaling
		ps.Other += time.Since(t0)
		ws.endPass("leiden", pass, &ps, psp)
	}
	if !haveInit {
		// The last aggregation's lookup left top dense over its communities.
		return cur.NumVertices()
	}
	// MaxPasses exhausted after an aggregation: apply the pending
	// move-based grouping of the last level (Algorithm 1 line 16 uses
	// the mapped C').
	return ws.closeOn(cur, ws.initC[:cur.NumVertices()], &PassStats{})
}

// closeOn ends the run on labels, the last level's flat partition —
// the community bounds, or the pending move labels, both below the
// level's vertex count. Like any move partition it may hold internally
// disconnected communities, so it splits those into their components,
// then records the level, renumbers the labels and applies them to the
// dendrogram. It returns the number of communities, which the top-level
// labels now hold densely in ascending label order, as renumbering them
// would. ps gets the split and the rest as Split and Other.
func (ws *workspace) closeOn(g *graph.CSR, labels []uint32, ps *PassStats) int {
	t0 := now()
	ws.splitConnected(g, labels)
	ps.Split = time.Since(t0)
	t0 = now()
	ws.recordLevel(labels, -1)
	nComms := ws.renumber(labels, len(labels))
	ws.lookupDendrogram(labels)
	ps.Other += time.Since(t0)
	return nComms
}

// finishResult computes the final modularity and quality from the
// top-level labels, dense in [0, nComms), with no label map: one sweep
// of quality.Accumulate serves both.
func finishResult(g *graph.CSR, ws *workspace, nComms int, elapsed time.Duration) *Result {
	ws.stats.Total = elapsed
	sums := quality.Accumulate(g, ws.top, nComms)
	res := &Result{
		Membership:     ws.top,
		NumCommunities: nComms,
		Modularity:     sums.Modularity(1),
		Passes:         len(ws.stats.Passes),
		Stats:          ws.stats,
	}
	switch ws.opt.Objective {
	case ObjectiveCPM:
		res.Quality = sums.CPM(ws.opt.Resolution)
	default:
		if ws.opt.Resolution == 1 {
			res.Quality = res.Modularity
		} else {
			res.Quality = sums.Modularity(ws.opt.Resolution)
		}
	}
	return res
}
