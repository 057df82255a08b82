package core

import (
	"time"

	"gveleiden/internal/color"
	"gveleiden/internal/graph"
	"gveleiden/internal/hashtable"
	"gveleiden/internal/observe"
)

// localMove runs one pass's local-moving phase on g and records it in
// ps: in deterministic mode it colors g (timed as ps.Color) and sweeps
// the color classes (movePhaseColored), otherwise it moves
// asynchronously (movePhase). It returns the iterations performed and
// the coloring, nil unless deterministic, for refinement to reuse.
func (ws *workspace) localMove(g *graph.CSR, tau float64, pass int, ps *PassStats) (int, *color.Coloring) {
	var col *color.Coloring
	if ws.opt.Deterministic {
		t0 := now()
		col = color.GreedyOn(ws.opt.Pool, g, ws.opt.Threads)
		ps.Color = time.Since(t0)
	}
	t0 := now()
	sp := ws.opt.Tracer.Begin("move", 0)
	if col != nil {
		ps.MoveIterations = ws.movePhaseColored(g, tau, col, pass, ps)
	} else {
		ps.MoveIterations = ws.movePhase(g, tau, pass, ps)
	}
	sp.End()
	ps.Move = time.Since(t0)
	return ps.MoveIterations, col
}

// movePhase is the local-moving phase of GVE-Leiden (Algorithm 2). It
// iteratively and asynchronously moves vertices to the neighbouring
// community with maximum delta-modularity, using flag-based vertex
// pruning: only vertices whose neighbourhood changed since they were
// last examined are reprocessed. Work counters (scanned, pruned, moves,
// ΔQ per iteration) accumulate into ps; each iteration emits a trace
// span and an observer event when those are configured. Returns l_i,
// the number of iterations performed.
func (ws *workspace) movePhase(g *graph.CSR, tau float64, pass int, ps *PassStats) int {
	n := g.NumVertices()
	threads, grain := ws.opt.Threads, ws.opt.Grain
	comm := ws.comm[:n]
	sz := ws.sizes
	ws.seedFlags(n)
	iters := 0
	for it := 0; it < ws.opt.MaxIterations; it++ {
		ws.zeroDQ()
		ws.zeroMC()
		sp := ws.opt.Tracer.Begin("move.iter", 0)
		ws.opt.Pool.For(n, threads, grain, func(lo, hi, tid int) {
			var local, realized float64
			var scanned, pruned, flat, moves int64
			for i := lo; i < hi; i++ {
				if ws.pruned(i) {
					pruned++
					continue
				}
				scanned++
				u := uint32(i)
				d := commLoad(comm, u)
				ki, si := ws.k[u], sz.vertex(u)
				ch, isFlat := ws.moveTarget(tid, g, comm, u, d, ki, si)
				if isFlat {
					flat++
				}
				if ch.dq <= 0 {
					continue
				}
				moves++
				local += ch.dq
				realized += ws.applyMove(g, comm, u, d, ch.c, ki, si, ch.kic-ch.kid)
			}
			ws.dq[tid].V += local
			ws.rq[tid].V += realized
			mc := &ws.mc[tid].V
			mc.scanned += scanned
			mc.pruned += pruned
			mc.flat += flat
			mc.moves += moves
		})
		iters++
		// Convergence tests the decision-time gains against τ, as in
		// Algorithm 2. The stats and observers get the gains the moves
		// realized (see applyMove): concurrent moves make the estimates
		// overstate the quality reached, the realized gains do not.
		dq, realized := ws.sumDQ()
		ws.recordIteration(pass, it, realized, ps, sp)
		if dq <= tau { // locally converged?
			break
		}
	}
	return iters
}

// seedFlags starts a local-moving phase's pruning flags over n
// vertices: in dynamic-frontier mode only the vertices touched by the
// batch start unprocessed (the frontier is consumed here, and the flags
// propagate outward as vertices move); otherwise every vertex does.
func (ws *workspace) seedFlags(n int) {
	ws.flags.Resize(n)
	if ws.frontier == nil {
		ws.flags.SetAll(ws.opt.Pool, true, ws.opt.Threads)
		return
	}
	ws.flags.SetAll(ws.opt.Pool, false, ws.opt.Threads)
	for _, v := range ws.frontier {
		ws.flags.Set(int(v), true)
	}
	ws.frontier = nil
}

// pruned reports whether flag-based pruning skips vertex i this
// iteration; a vertex it does not skip is marked processed.
func (ws *workspace) pruned(i int) bool {
	if ws.opt.DisablePruning {
		return false
	}
	if !ws.flags.Get(i) {
		return true
	}
	ws.flags.Set(i, false)
	return false
}

// recordIteration folds one local-moving iteration's merged counters
// into ps, closes its trace span, and notifies the observer. Shared by
// the asynchronous and the deterministic (colored) move phases.
func (ws *workspace) recordIteration(pass, it int, dq float64, ps *PassStats, sp observe.Span) {
	c := ws.sumMC()
	ps.Scanned += c.scanned
	ps.Pruned += c.pruned
	ps.FlatScans += c.flat
	ps.Moves += c.moves
	ps.IterMoves = append(ps.IterMoves, c.moves)
	ps.DeltaQ += dq
	if ws.opt.Tracer != nil { // don't build the args map when not tracing
		sp.EndArgs(map[string]any{
			"scanned": c.scanned, "pruned": c.pruned, "flat": c.flat, "moves": c.moves, "dq": dq,
		})
	}
	if o := ws.opt.Observer; o != nil {
		o.OnIteration(observe.IterEvent{
			Pass:      pass,
			Iteration: it,
			Scanned:   c.scanned,
			Pruned:    c.pruned,
			FlatScans: c.flat,
			Moves:     c.moves,
			DeltaQ:    dq,
		})
	}
}

// choice is one scan's decision for a vertex in community d: the
// target community c and the gain dq of moving there, with the vertex's
// arc weights into c (kic) and into d (kid). When no move gains, c is d
// and dq is 0.
type choice struct {
	c            uint32
	dq, kic, kid float64
}

// beatenBy reports whether a move into community c with gain dq beats
// b: it must gain strictly more, or as much and more than zero with a
// lower community id. The winner therefore does not depend on the order
// the candidates arrive in, so the flat array and the dense table pick
// the same community. This is the one decision rule of local moving
// (Algorithm 2) and greedy refinement (Algorithm 3), asynchronous and
// colored alike.
func (b choice) beatenBy(dq float64, c uint32) bool {
	return dq > b.dq || (dq == b.dq && dq > 0 && c < b.c)
}

// pickFlat returns the best move for a vertex (weighted degree ki, size
// si) out of community d among the communities accumulated in f.
//
//gvevet:contract noescape
func (ws *workspace) pickFlat(f *hashtable.Flat, d uint32, ki, si float64) choice {
	best := choice{c: d, kid: f.Get(d)}
	sd, nd := ws.sigma.Get(int(d)), ws.sizes.comm(d)
	for i := 0; i < f.Len(); i++ {
		c, kic := f.Key(i), f.Val(i)
		if c == d {
			continue
		}
		if dq := ws.delta(kic, best.kid, ki, ws.sigma.Get(int(c)), sd, si, ws.sizes.comm(c), nd); best.beatenBy(dq, c) {
			best = choice{c, dq, kic, best.kid}
		}
	}
	return best
}

// pickTable is pickFlat over the dense table h.
//
//gvevet:contract noescape
func (ws *workspace) pickTable(h *hashtable.Accumulator, d uint32, ki, si float64) choice {
	best := choice{c: d, kid: h.Get(d)}
	sd, nd := ws.sigma.Get(int(d)), ws.sizes.comm(d)
	for _, c := range h.Keys() {
		if c == d {
			continue
		}
		kic := h.Get(c)
		if dq := ws.delta(kic, best.kid, ki, ws.sigma.Get(int(c)), sd, si, ws.sizes.comm(c), nd); best.beatenBy(dq, c) {
			best = choice{c, dq, kic, best.kid}
		}
	}
	return best
}

// moveTarget scans the communities adjacent to u, self-loop excluded,
// and returns u's best move out of its community d (Algorithm 2, lines
// 17-24), reporting whether the flat array served the scan. A vertex of
// degree ≤ hashtable.FlatCap touches at most FlatCap communities, so it
// accumulates in thread tid's fixed-size flat array; any other vertex
// uses the thread's dense table. Both sum each community's weight in
// arc order, so the two paths decide alike.
//
//gvevet:contract noescape
func (ws *workspace) moveTarget(tid int, g *graph.CSR, comm []uint32, u, d uint32, ki, si float64) (choice, bool) {
	if ws.opt.DisableFlatScan || g.Degree(u) > hashtable.FlatCap {
		h := ws.table(tid, len(comm))
		h.Clear()
		scanCommunities(h, g, comm, u, false)
		return ws.pickTable(h, d, ki, si), false
	}
	f := &ws.flats[tid]
	f.Reset()
	es, wts := g.Neighbors(u)
	for k, e := range es {
		if e != u {
			f.Add(commLoad(comm, e), float64(wts[k]))
		}
	}
	return ws.pickFlat(f, d, ki, si), true
}

// applyMove commits the move of u from community d to bestC: updates
// the community totals atomically, publishes the new membership, and
// re-flags the neighbours whose best community could have changed.
// Marking is selective (Sahu's tighter pruning): a neighbour already in
// the destination community only got more attached to it by u's
// arrival, so its currently-best move cannot have flipped — only
// neighbours elsewhere need re-examination. The membership reads are
// racy snapshots, which is fine for a pruning heuristic: a stale read
// at worst re-flags a vertex that rescans and stays put.
//
// It returns the gain the move realized rather than the decision-time
// estimate, which misses whatever other workers changed between u's
// scan and this commit. The Σ' terms use the values the atomic adds
// replaced, so they telescope exactly under any interleaving. The edge
// term kic−kid is taken twice, as scanned (scannedGain) and re-read
// after the store, and the smaller is kept. A vertex moves at most once
// per iteration, so a neighbour that moved in between shows its
// membership at the moment of u's store in one of the two views. With
// at most one such neighbour the result cannot exceed the gain u's
// store realized; two neighbours committing on opposite sides of it
// can push it over by their edge weights, which is rare. Without
// concurrency both views equal the estimate, and so does the result,
// bit for bit.
//
//gvevet:contract noescape
func (ws *workspace) applyMove(g *graph.CSR, comm []uint32, u, d, bestC uint32, ki, si, scannedGain float64) float64 {
	sd := ws.sigma.FetchAdd(int(d), -ki) // Σ'[C'[i]] -= K'[i]
	sc := ws.sigma.FetchAdd(int(bestC), ki)
	nd, nc := ws.sizes.move(d, bestC, si)
	commStore(comm, u, bestC)
	es, wts := g.Neighbors(u)
	var kic, kid float64
	for k, e := range es {
		if e == u {
			continue
		}
		switch commLoad(comm, e) {
		case bestC:
			kic += float64(wts[k])
			continue
		case d:
			kid += float64(wts[k])
		}
		ws.flags.Set(int(e), true)
	}
	if scannedGain < kic-kid {
		kic, kid = scannedGain, 0
	}
	return ws.delta(kic, kid, ki, sc, sd, si, nc, nd)
}

// scanCommunities accumulates, into h, the total edge weight between
// vertex u and each community adjacent to it (Algorithm 2, lines 17-21).
// With self=false the self-loop is skipped (local moving / refinement);
// with self=true it is included (aggregation).
//
//gvevet:contract noescape
func scanCommunities(h *hashtable.Accumulator, g *graph.CSR, comm []uint32, u uint32, self bool) {
	es, wts := g.Neighbors(u)
	for k, e := range es {
		if !self && e == u {
			continue
		}
		h.Add(commLoad(comm, e), float64(wts[k]))
	}
}
