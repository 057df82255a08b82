package core

import (
	"gveleiden/internal/graph"
	"gveleiden/internal/hashtable"
	"gveleiden/internal/prng"
)

// refinePhase is the refinement phase of GVE-Leiden (Algorithm 3): the
// constrained merge procedure. Every vertex starts in its own singleton
// community; only vertices that are still *isolated* (their community
// holds nothing but them, detected by Σ'[c] == K'[i]) may merge into a
// neighbouring sub-community within their community bound C'_B. A
// compare-and-swap on Σ'[c] claims the vertex, so two neighbours cannot
// both leave and join each other, and a vertex joins only a
// sub-community that still holds a vertex (AddIfNonZero), so none is
// joined after its anchor left. This splits internally-disconnected
// communities from the local-moving phase and never creates new ones.
//
// Returns the number of vertices that changed sub-community.
func (ws *workspace) refinePhase(g *graph.CSR) int64 {
	n := g.NumVertices()
	threads, grain := ws.opt.Threads, ws.opt.Grain
	comm := ws.comm[:n]
	bounds := ws.bounds[:n]
	sz := ws.sizes
	greedy := ws.opt.Refinement == RefineGreedy
	ws.zeroMoved()
	flat := greedy && !ws.opt.DisableFlatScan
	ws.opt.Pool.For(n, threads, grain, func(lo, hi, tid int) {
		f := &ws.flats[tid]
		rng := ws.rngs[tid]
		var local int64
		for i := lo; i < hi; i++ {
			u := uint32(i)
			c := commLoad(comm, u)
			ki := ws.k[u]
			if ws.sigma.Get(int(c)) != ki {
				continue // not isolated: anchors its sub-community
			}
			var target uint32
			var ok bool
			if flat && g.Degree(u) <= hashtable.FlatCap {
				target, ok = ws.bestBoundedFlat(g, f, bounds, comm, c, u, ki)
			} else {
				h := ws.table(tid, n)
				h.Clear()
				scanBounded(h, g, bounds, comm, u)
				if greedy {
					target, ok = ws.bestBounded(h, c, u, ki)
				} else {
					target, ok = ws.randomBounded(h, c, u, ki, rng)
				}
			}
			if !ok || target == c {
				continue
			}
			// Claim the vertex: succeed only if still alone in c. Then
			// join target only while it is occupied: Σ'[target] is zero
			// once its only vertex has claimed itself away, and joining
			// then could leave target holding vertices with no edge
			// between them. Backing out restores c, which no one could
			// join while its Σ' read zero.
			if ws.sigma.CAS(int(c), ki, 0) {
				if !ws.sigma.AddIfNonZero(int(target), ki) {
					ws.sigma.Set(int(c), ki)
					continue
				}
				sz.move(c, target, sz.vertex(u))
				commStore(comm, u, target)
				local++
			}
		}
		ws.moved[tid].V += local
	})
	return ws.sumMoved()
}

// scanBounded accumulates the edge weights from u towards each
// sub-community, restricted to neighbours within the same community
// bound (Algorithm 3, lines 12-17).
func scanBounded(h *hashtable.Accumulator, g *graph.CSR, bounds, comm []uint32, u uint32) {
	es, wts := g.Neighbors(u)
	bu := bounds[u]
	for k, e := range es {
		if e == u {
			continue
		}
		if bounds[e] != bu {
			continue
		}
		h.Add(commLoad(comm, e), float64(wts[k]))
	}
}

// bestBounded returns the sub-community with maximum positive
// delta-modularity for the greedy refinement variant.
func (ws *workspace) bestBounded(h *hashtable.Accumulator, c, u uint32, ki float64) (uint32, bool) {
	sz := ws.sizes
	kid := h.Get(c)
	sd := ws.sigma.Get(int(c))
	si := sz.vertex(u)
	nd := sz.comm(c)
	bestC := c
	bestDQ := 0.0
	for _, cand := range h.Keys() {
		if cand == c {
			continue
		}
		dq := ws.delta(h.Get(cand), kid, ki, ws.sigma.Get(int(cand)), sd, si, sz.comm(cand), nd)
		if dq > bestDQ || (dq == bestDQ && dq > 0 && cand < bestC) {
			bestDQ = dq
			bestC = cand
		}
	}
	return bestC, bestDQ > 0
}

// bestBoundedFlat is scanBounded plus bestBounded for a vertex of
// degree ≤ hashtable.FlatCap, accumulating in the flat array instead of
// the dense table, as moveVertexFlat does for local moving. The degree
// counts the self-loop and the arcs leaving u's bound, so at most
// FlatCap distinct sub-communities reach f. Each key's weight is summed
// in arc order and the tie-break does not depend on key order, so the
// pick is the one bestBounded makes.
//
//gvevet:contract noescape
func (ws *workspace) bestBoundedFlat(g *graph.CSR, f *hashtable.Flat, bounds, comm []uint32, c, u uint32, ki float64) (uint32, bool) {
	f.Reset()
	es, wts := g.Neighbors(u)
	bu := bounds[u]
	for k, e := range es {
		if e == u || bounds[e] != bu {
			continue
		}
		f.Add(commLoad(comm, e), float64(wts[k]))
	}
	sz := ws.sizes
	kid := f.Get(c)
	sd := ws.sigma.Get(int(c))
	si := sz.vertex(u)
	nd := sz.comm(c)
	bestC := c
	bestDQ := 0.0
	for i := 0; i < f.Len(); i++ {
		cand := f.Key(i)
		if cand == c {
			continue
		}
		dq := ws.delta(f.Val(i), kid, ki, ws.sigma.Get(int(cand)), sd, si, sz.comm(cand), nd)
		if dq > bestDQ || (dq == bestDQ && dq > 0 && cand < bestC) {
			bestDQ = dq
			bestC = cand
		}
	}
	return bestC, bestDQ > 0
}

// randomBounded selects a sub-community with probability proportional
// to its (positive) delta-modularity — the randomized refinement of the
// original Leiden algorithm, driven by a per-thread xorshift32 stream.
func (ws *workspace) randomBounded(h *hashtable.Accumulator, c, u uint32, ki float64, rng *prng.Xorshift32) (uint32, bool) {
	sz := ws.sizes
	kid := h.Get(c)
	sd := ws.sigma.Get(int(c))
	si := sz.vertex(u)
	nd := sz.comm(c)
	cand := func(cc uint32) float64 {
		return ws.delta(h.Get(cc), kid, ki, ws.sigma.Get(int(cc)), sd, si, sz.comm(cc), nd)
	}
	var total float64
	for _, cc := range h.Keys() {
		if cc == c {
			continue
		}
		if dq := cand(cc); dq > 0 {
			total += dq
		}
	}
	if total <= 0 {
		return c, false
	}
	r := rng.Float64() * total
	var run float64
	for _, cc := range h.Keys() {
		if cc == c {
			continue
		}
		dq := cand(cc)
		if dq <= 0 {
			continue
		}
		run += dq
		if run >= r {
			return cc, true
		}
	}
	// Floating-point slack: fall back to the last positive candidate.
	for i := len(h.Keys()) - 1; i >= 0; i-- {
		cc := h.Keys()[i]
		if cc == c {
			continue
		}
		if cand(cc) > 0 {
			return cc, true
		}
	}
	return c, false
}
