package baseline

import (
	"sync/atomic"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// ParLeidenBSP is the stand-in for cuGraph's GPU Leiden (DESIGN.md §3):
// a bulk-synchronous parallel Leiden. Each local-moving super-step
// evaluates the best move of every vertex against a frozen snapshot of
// the memberships and community weights (the GPU kernel model), then
// commits all accepted moves at once and rebuilds the community weights.
// Symmetric singleton-singleton swaps are damped with the smaller-label
// rule of GPU Louvain implementations (Naim et al.).
//
// Like the GPU original, its refinement evaluates on frozen state; the
// commit step can therefore merge two sub-communities through a vertex
// that moved in the same super-step, occasionally yielding a (tiny)
// fraction of disconnected communities — the behaviour the paper reports
// for cuGraph in Figure 6(d).
func ParLeidenBSP(g *graph.CSR, opt Options) []uint32 {
	opt = opt.normalized()
	threads := opt.Threads
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	n0 := g.NumVertices()
	top := make([]uint32, n0)
	for i := range top {
		top[i] = uint32(i)
	}
	cur := g
	var m float64
	for pass := 0; pass < opt.MaxPasses; pass++ {
		n := cur.NumVertices()
		k := vertexWeights(cur)
		if pass == 0 {
			m = halfTotalWeight(k)
			if m == 0 {
				return top
			}
		}
		comm, moved := bspMove(cur, k, m, threads, opt.MaxIterations, opt.Tolerance)
		refined, _ := bspRefine(cur, k, m, comm, threads)
		if moved == 0 && pass > 0 {
			for v := range top {
				top[v] = comm[top[v]]
			}
			break
		}
		next, dense := aggregateByMaps(cur, refined)
		for v := range top {
			top[v] = dense[refined[top[v]]]
		}
		if next.NumVertices() == n {
			break
		}
		cur = next
	}
	return densify(top)
}

// bspMove runs synchronous local-moving super-steps until a step gains
// less than tol or maxIter steps have run. Returns membership and the
// total number of moves.
func bspMove(g *graph.CSR, k []float64, m float64, threads, maxIter int, tol float64) ([]uint32, int64) {
	n := g.NumVertices()
	comm := make([]uint32, n)
	next := make([]uint32, n)
	sigma := make([]float64, n)
	for i := 0; i < n; i++ {
		comm[i] = uint32(i)
		sigma[i] = k[i]
	}
	var totalMoves int64
	gains := make([]float64, threads*8) // padded per-thread gain slots
	for it := 0; it < maxIter; it++ {
		for i := range gains {
			gains[i] = 0
		}
		var stepMoves atomic.Int64
		// Decision kernel: all vertices read the frozen comm/sigma.
		parallel.Default().For(n, threads, 512, func(lo, hi, tid int) {
			weights := make(map[uint32]float64, 16)
			var localGain float64
			for i := lo; i < hi; i++ {
				u := uint32(i)
				d := comm[u]
				next[u] = d
				for c := range weights {
					delete(weights, c)
				}
				es, ws := g.Neighbors(u)
				for kk, e := range es {
					if e == u {
						continue
					}
					weights[comm[e]] += float64(ws[kk])
				}
				kid := weights[d]
				best := d
				bestDQ := 0.0
				for c, kic := range weights {
					if c == d {
						continue
					}
					dq := deltaQ(kic, kid, k[u], sigma[c], sigma[d], m)
					if dq > bestDQ || (dq == bestDQ && dq > 0 && c < best) {
						bestDQ = dq
						best = c
					}
				}
				if bestDQ <= 0 || best == d {
					continue
				}
				// Smaller-label damping: a singleton may only adopt a
				// smaller community label when its target is also a
				// singleton, preventing two singletons from swapping
				// forever.
				if sigma[d] == k[u] && sigma[best] == k[best] && best > d {
					continue
				}
				next[u] = best
				localGain += bestDQ
				stepMoves.Add(1)
			}
			gains[tid*8] += localGain
		})
		// Commit kernel: adopt decisions and rebuild sigma.
		comm, next = next, comm
		for i := range sigma {
			sigma[i] = 0
		}
		for i := 0; i < n; i++ {
			sigma[comm[i]] += k[i]
		}
		totalMoves += stepMoves.Load()
		var gain float64
		for t := 0; t < threads; t++ {
			gain += gains[t*8]
		}
		if stepMoves.Load() == 0 || gain <= tol {
			break
		}
	}
	return comm, totalMoves
}

// bspRefine runs synchronous constrained-merge super-steps: isolated
// vertices (on the frozen snapshot) pick the best sub-community within
// their bound; all accepted merges commit at once.
func bspRefine(g *graph.CSR, k []float64, m float64, bounds []uint32, threads int) ([]uint32, int64) {
	n := g.NumVertices()
	comm := make([]uint32, n)
	next := make([]uint32, n)
	sigma := make([]float64, n)
	for i := 0; i < n; i++ {
		comm[i] = uint32(i)
		sigma[i] = k[i]
	}
	var total int64
	for step := 0; step < 8; step++ {
		var stepMoves atomic.Int64
		parallel.Default().For(n, threads, 512, func(lo, hi, _ int) {
			weights := make(map[uint32]float64, 16)
			for i := lo; i < hi; i++ {
				u := uint32(i)
				c := comm[u]
				next[u] = c
				if sigma[c] != k[u] {
					continue // not isolated on the frozen snapshot
				}
				for cc := range weights {
					delete(weights, cc)
				}
				es, ws := g.Neighbors(u)
				for kk, e := range es {
					if e == u || bounds[e] != bounds[u] {
						continue
					}
					weights[comm[e]] += float64(ws[kk])
				}
				kid := weights[c]
				best := c
				bestDQ := 0.0
				for cc, kic := range weights {
					if cc == c {
						continue
					}
					dq := deltaQ(kic, kid, k[u], sigma[cc], sigma[c], m)
					if dq > bestDQ || (dq == bestDQ && dq > 0 && cc < best) {
						bestDQ = dq
						best = cc
					}
				}
				if bestDQ <= 0 || best == c {
					continue
				}
				// Damping: only merge towards a smaller label when the
				// target is itself isolated, else both ends of an edge
				// adopt each other and the pair oscillates.
				if sigma[best] == k[best] && best > c {
					continue
				}
				next[u] = best
				stepMoves.Add(1)
			}
		})
		comm, next = next, comm
		for i := range sigma {
			sigma[i] = 0
		}
		for i := 0; i < n; i++ {
			sigma[comm[i]] += k[i]
		}
		total += stepMoves.Load()
		if stepMoves.Load() == 0 {
			break
		}
	}
	return comm, total
}
