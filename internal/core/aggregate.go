package core

import (
	"sync/atomic"

	"gveleiden/internal/graph"
	"gveleiden/internal/hashtable"
)

// aggregate is the aggregation phase of GVE-Leiden (Algorithm 4): it
// collapses every (refined, renumbered) community of g into one
// super-vertex and returns the super-vertex graph.
//
// It follows the paper's construction exactly:
//
//  1. Build the community-vertices CSR G'_C' (see members).
//  2. Overestimate each super-vertex's degree as the total degree of
//     its community's members, exclusive-scan into a *holey* CSR's
//     offsets.
//  3. In parallel over communities (dynamic schedule — community sizes
//     are heavily skewed), accumulate cross-community weights in the
//     per-thread collision-free hashtable (self-loops included, so a
//     community's internal weight folds into its super-vertex loop) and
//     write the arcs into the community's reserved slot. A community
//     whose total degree is at most hashtable.FlatCap accumulates in the
//     thread's flat array instead (aggregateFlat), which writes the same
//     arcs in the same order.
//
// Each community also sums the float32 weights it wrote, in the order
// it wrote them: exactly the sum graph.VertexWeight takes over the
// super-vertex's arcs, so the next level's K' lands in ws.k[:nComms]
// without a sweep of its own.
//
// The returned graph's storage lives in the next ping-pong arena,
// allocated by the first aggregation that writes it.
//
// It also returns the number of arcs written and the holey CSR's slot
// occupancy — arcs written over slots reserved by the total-degree
// overestimate — a measure of how much cross-community deduplication
// the per-thread hashtables did this pass.
func (ws *workspace) aggregate(g *graph.CSR, nComms int) (*graph.CSR, int64, float64) {
	n := g.NumVertices()
	pool, threads, grain := ws.opt.Pool, ws.opt.Threads, ws.opt.Grain
	comm := ws.comm[:n]
	commOff, commVtx := ws.members(n, nComms)
	a := &ws.arenas[ws.cur]
	ws.cur = 1 - ws.cur

	// --- Super-vertex offsets from overestimated degrees (lines 8-9). ---
	a.offsets = reserve(a.offsets, nComms+1)
	superOff := a.offsets
	pool.For(nComms, threads, grain, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			var deg uint32
			for _, i := range commVtx[commOff[c]:commOff[c+1]] {
				deg += g.Degree(i)
			}
			superOff[c] = deg
		}
	})
	superOff[nComms] = 0
	capacity := pool.ExclusiveScanUint32(superOff, threads)

	// --- Super-vertex graph (lines 11-16). ---
	a.counts = reserve(a.counts, nComms)
	a.edges = reserve(a.edges, int(capacity))
	a.weights = reserve(a.weights, int(capacity))
	counts, edges, weights := a.counts, a.edges, a.weights
	k := ws.k[:nComms]
	aggGrain := grain / 16
	if aggGrain < 1 {
		aggGrain = 1
	}
	flat := !ws.opt.DisableFlatScan
	ws.zeroAgg()
	pool.For(nComms, threads, aggGrain, func(lo, hi, tid int) {
		f := &ws.flats[tid]
		var arcs int64
		for c := lo; c < hi; c++ {
			members := commVtx[commOff[c]:commOff[c+1]]
			base, end := superOff[c], superOff[c+1]
			if flat && end-base <= hashtable.FlatCap {
				cnt, kc := aggregateFlat(f, g, comm, members, edges[base:], weights[base:])
				counts[c] = uint32(cnt)
				k[c] = kc
				arcs += int64(cnt)
				continue
			}
			h := ws.table(tid, nComms)
			h.Clear()
			for _, i := range members {
				scanCommunities(h, g, comm, i, true)
			}
			var kc float64
			for idx, d := range h.Keys() {
				w := float32(h.Get(d))
				edges[base+uint32(idx)] = d
				weights[base+uint32(idx)] = w
				kc += float64(w)
			}
			counts[c] = uint32(h.Len())
			k[c] = kc
			arcs += int64(h.Len())
		}
		ws.agg[tid].V += arcs
	})
	written := ws.sumAgg()
	occupancy := 0.0
	if capacity > 0 {
		occupancy = float64(written) / float64(capacity)
	}
	return &graph.CSR{
		Offsets: superOff,
		Counts:  counts,
		Edges:   edges,
		Weights: weights,
	}, written, occupancy
}

// members builds the community-vertices CSR G'_C' of comm's nComms
// communities over g's n vertices (Algorithm 4 lines 3-6): counts per
// community, a parallel exclusive scan, then an atomic scatter of vertex
// ids, with the placement cursors in the scratch buffer. Community c's
// vertices are commVtx[commOff[c]:commOff[c+1]].
func (ws *workspace) members(n, nComms int) ([]uint32, []uint32) {
	pool, threads, grain := ws.opt.Pool, ws.opt.Threads, ws.opt.Grain
	ws.commOff = reserve(ws.commOff, nComms+1)
	ws.commVtx = reserve(ws.commVtx, n)
	comm := ws.comm[:n]
	commOff := ws.commOff
	pool.FillUint32(commOff, 0, threads)
	pool.For(n, threads, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			atomic.AddUint32(&commOff[comm[i]], 1)
		}
	})
	pool.ExclusiveScanUint32(commOff, threads)
	cursor := ws.scratch[:nComms]
	copy(cursor, commOff[:nComms]) //gvevet:exclusive between regions: the counting adds and the scatter's cursor adds are separated by pool barriers
	commVtx := ws.commVtx
	pool.For(n, threads, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			p := atomic.AddUint32(&cursor[comm[i]], 1) - 1
			commVtx[p] = uint32(i)
		}
	})
	return commOff, commVtx
}

// aggregateFlat is the per-community step of aggregate for a community
// whose total degree (self-loops included) is at most hashtable.FlatCap,
// which bounds its distinct target communities: it accumulates the
// members' arcs in the flat array and writes them to edges and weights
// in first-touch order, each key's weight summed in arc order — the
// arcs, order and sums the dense table produces. It returns the number
// of arcs written and the sum of their float32 weights in that order
// (the super-vertex's K').
//
//gvevet:contract noescape
func aggregateFlat(f *hashtable.Flat, g *graph.CSR, comm, members, edges []uint32, weights []float32) (int, float64) {
	f.Reset()
	for _, i := range members {
		es, wts := g.Neighbors(i)
		for k, e := range es {
			f.Add(commLoad(comm, e), float64(wts[k]))
		}
	}
	n := f.Len()
	var kc float64
	for idx := 0; idx < n; idx++ {
		w := float32(f.Val(idx))
		edges[idx] = f.Key(idx)
		weights[idx] = w
		kc += float64(w)
	}
	return n, kc
}
