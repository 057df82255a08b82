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
//  1. Build the community-vertices CSR G'_C' — counts per community,
//     parallel exclusive scan, then an atomic scatter of vertex ids.
//  2. Overestimate each super-vertex's degree as the total degree of
//     its community, exclusive-scan into a *holey* CSR's offsets.
//  3. In parallel over communities (dynamic schedule — community sizes
//     are heavily skewed), accumulate cross-community weights in the
//     per-thread collision-free hashtable (self-loops included, so a
//     community's internal weight folds into its super-vertex loop) and
//     write the arcs into the community's reserved slot. A community
//     whose total degree is at most hashtable.FlatCap accumulates in the
//     thread's flat array instead (aggregateFlat), which writes the same
//     arcs in the same order.
//
// The returned graph's storage lives in the next ping-pong arena; no
// allocation happens beyond slicing preallocated arrays.
//
// The second return value is the holey CSR's slot occupancy — arcs
// actually written over slots reserved by the total-degree
// overestimate — a measure of how much cross-community deduplication
// the per-thread hashtables did this pass.
func (ws *workspace) aggregate(g *graph.CSR, nComms int) (*graph.CSR, float64) {
	n := g.NumVertices()
	pool, threads, grain := ws.opt.Pool, ws.opt.Threads, ws.opt.Grain
	comm := ws.comm[:n]
	a := &ws.arenas[ws.cur]
	ws.cur = 1 - ws.cur

	// --- Community-vertices CSR (lines 3-6). ---
	commOff := a.commOff[:nComms+1]
	pool.FillUint32(commOff, 0, threads)
	pool.For(n, threads, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			atomic.AddUint32(&commOff[comm[i]], 1) //gvevet:exclusive frozen comm: local moving committed behind a barrier before aggregation
		}
	})
	pool.ExclusiveScanUint32(commOff, threads)
	cursor := ws.cursor[:nComms]
	copy(cursor, commOff[:nComms]) //gvevet:exclusive between regions: the counting adds and the scatter's cursor adds are separated by pool barriers
	commVtx := a.commVtx[:n]
	pool.For(n, threads, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			p := atomic.AddUint32(&cursor[comm[i]], 1) - 1 //gvevet:exclusive frozen comm: local moving committed behind a barrier before aggregation
			commVtx[p] = uint32(i)
		}
	})

	// --- Super-vertex offsets from overestimated degrees (lines 8-9). ---
	superOff := a.offsets[:nComms+1]
	pool.FillUint32(superOff, 0, threads)
	pool.For(n, threads, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			atomic.AddUint32(&superOff[comm[i]], g.Degree(uint32(i))) //gvevet:exclusive frozen comm: local moving committed behind a barrier before aggregation
		}
	})
	capacity := pool.ExclusiveScanUint32(superOff, threads)

	// --- Super-vertex graph (lines 11-16). ---
	counts := a.counts[:nComms]
	edges := a.edges[:capacity]
	weights := a.weights[:capacity]
	aggGrain := grain / 16
	if aggGrain < 1 {
		aggGrain = 1
	}
	flat := !ws.opt.DisableFlatScan
	ws.zeroAgg()
	pool.For(nComms, threads, aggGrain, func(lo, hi, tid int) {
		h := ws.tables[tid]
		f := &ws.flats[tid]
		var arcs int64
		for c := lo; c < hi; c++ {
			//gvevet:exclusive read-only phase: commOff's atomic counting finished behind earlier region barriers
			members := commVtx[commOff[c]:commOff[c+1]]
			//gvevet:exclusive read-only phase: superOff's atomic degree adds finished behind earlier region barriers
			base, end := superOff[c], superOff[c+1]
			if flat && end-base <= hashtable.FlatCap {
				k := aggregateFlat(f, g, comm, members, edges[base:], weights[base:])
				counts[c] = uint32(k)
				arcs += int64(k)
				continue
			}
			h.Clear()
			for _, i := range members {
				scanCommunities(h, g, comm, i, true)
			}
			for idx, d := range h.Keys() {
				edges[base+uint32(idx)] = d
				weights[base+uint32(idx)] = float32(h.Get(d))
			}
			counts[c] = uint32(h.Len())
			arcs += int64(h.Len())
		}
		ws.agg[tid].V += arcs
	})
	occupancy := 0.0
	if capacity > 0 {
		occupancy = float64(ws.sumAgg()) / float64(capacity)
	}
	return &graph.CSR{
		Offsets: superOff,
		Counts:  counts,
		Edges:   edges,
		Weights: weights,
	}, occupancy
}

// aggregateFlat is the per-community step of aggregate for a community
// whose total degree (self-loops included) is at most hashtable.FlatCap,
// which bounds its distinct target communities: it accumulates the
// members' arcs in the flat array and writes them to edges and weights
// in first-touch order, each key's weight summed in arc order — the
// arcs, order and sums the dense table produces. It returns the number
// of arcs written.
//
//gvevet:contract noescape
func aggregateFlat(f *hashtable.Flat, g *graph.CSR, comm, members, edges []uint32, weights []float32) int {
	f.Reset()
	for _, i := range members {
		es, wts := g.Neighbors(i)
		for k, e := range es {
			f.Add(commLoad(comm, e), float64(wts[k]))
		}
	}
	n := f.Len()
	for idx := 0; idx < n; idx++ {
		edges[idx] = f.Key(idx)
		weights[idx] = float32(f.Val(idx))
	}
	return n
}
