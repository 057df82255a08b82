package core

import (
	"gveleiden/internal/graph"
	"gveleiden/internal/hashtable"
	"gveleiden/internal/observe"
)

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
	ws.flags.Resize(n)
	if ws.frontier != nil {
		// Dynamic-frontier mode: only the vertices touched by the batch
		// start unprocessed; the flags propagate outward as they move.
		ws.flags.SetAll(ws.opt.Pool, false, threads)
		for _, v := range ws.frontier {
			ws.flags.Set(int(v), true)
		}
		ws.frontier = nil
	} else {
		ws.flags.SetAll(ws.opt.Pool, true, threads) // mark all vertices unprocessed
	}
	iters := 0
	for it := 0; it < ws.opt.MaxIterations; it++ {
		ws.zeroDQ()
		ws.zeroMC()
		sp := ws.opt.Tracer.Begin("move.iter", 0)
		ws.opt.Pool.For(n, threads, grain, func(lo, hi, tid int) {
			f := &ws.flats[tid]
			var local, realized float64
			var scanned, pruned, flat, moves int64
			for i := lo; i < hi; i++ {
				u := uint32(i)
				if !ws.opt.DisablePruning {
					if !ws.flags.Get(i) {
						pruned++
						continue
					}
					ws.flags.Set(i, false) // prune: mark processed
				}
				scanned++
				var dq, got float64
				if !ws.opt.DisableFlatScan && g.Degree(u) <= hashtable.FlatCap {
					dq, got = ws.moveVertexFlat(g, f, comm, u)
					flat++
				} else {
					dq, got = ws.moveVertex(g, ws.table(tid, n), comm, u)
				}
				if dq > 0 {
					moves++
				}
				local += dq
				realized += got
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

// moveVertex examines one vertex: scans the communities connected to it
// (excluding the self-loop), picks the best move, and applies it
// atomically. Returns the delta-modularity the move was chosen for and
// the one it realized (see applyMove); (0, 0) when the vertex stays.
//
//gvevet:contract noescape
func (ws *workspace) moveVertex(g *graph.CSR, h *hashtable.Accumulator, comm []uint32, u uint32) (float64, float64) {
	d := commLoad(comm, u)
	h.Clear()
	scanCommunities(h, g, comm, u, false)
	sz := ws.sizes
	ki := ws.k[u]
	si := sz.vertex(u)
	kid := h.Get(d)
	sd := ws.sigma.Get(int(d))
	nd := sz.comm(d)
	bestC := d
	bestDQ := 0.0
	for _, c := range h.Keys() {
		if c == d {
			continue
		}
		dq := ws.delta(h.Get(c), kid, ki, ws.sigma.Get(int(c)), sd, si, sz.comm(c), nd)
		if dq > bestDQ || (dq == bestDQ && dq > 0 && c < bestC) {
			bestDQ = dq
			bestC = c
		}
	}
	if bestDQ <= 0 || bestC == d {
		return 0, 0
	}
	return bestDQ, ws.applyMove(g, comm, u, d, bestC, ki, si, h.Get(bestC)-kid)
}

// moveVertexFlat is moveVertex for low-degree vertices (degree ≤
// hashtable.FlatCap): the community-weight accumulation runs in a
// fixed-size flat array searched linearly instead of the dense stamped
// hashtable. A vertex of degree d touches at most d distinct
// communities, so the gate guarantees the array never overflows; and
// the best-community tie-break is order-independent (strictly greater
// gain, or equal gain and lower community id, wins), so the flat path
// picks exactly the community moveVertex would.
//
//gvevet:contract noescape
func (ws *workspace) moveVertexFlat(g *graph.CSR, f *hashtable.Flat, comm []uint32, u uint32) (float64, float64) {
	d := commLoad(comm, u)
	f.Reset()
	es, wts := g.Neighbors(u)
	for k, e := range es {
		if e == u {
			continue
		}
		f.Add(commLoad(comm, e), float64(wts[k]))
	}
	sz := ws.sizes
	ki := ws.k[u]
	si := sz.vertex(u)
	kid := f.Get(d)
	sd := ws.sigma.Get(int(d))
	nd := sz.comm(d)
	bestC := d
	bestDQ := 0.0
	for i := 0; i < f.Len(); i++ {
		c := f.Key(i)
		if c == d {
			continue
		}
		dq := ws.delta(f.Val(i), kid, ki, ws.sigma.Get(int(c)), sd, si, sz.comm(c), nd)
		if dq > bestDQ || (dq == bestDQ && dq > 0 && c < bestC) {
			bestDQ = dq
			bestC = c
		}
	}
	if bestDQ <= 0 || bestC == d {
		return 0, 0
	}
	return bestDQ, ws.applyMove(g, comm, u, d, bestC, ki, si, f.Get(bestC)-kid)
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
