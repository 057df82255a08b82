package baseline

import (
	"sync"
	"sync/atomic"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// ParLeidenQueue is a NetworKit-style parallel Leiden (Nguyen's
// implementation, as described in the paper §2): local moving driven by
// a global work queue, with striped community locking for the community
// weight updates. Its refinement phase moves vertices within bounds but
// — mirroring the defect the paper measures in Figure 6(d) — without
// the isolated-vertex guard, so it can emit internally-disconnected
// communities.
func ParLeidenQueue(g *graph.CSR, opt Options) []uint32 {
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
	passes := opt.MaxPasses
	if passes > queuePassCap {
		passes = queuePassCap
	}
	for pass := 0; pass < passes; pass++ {
		n := cur.NumVertices()
		k := vertexWeights(cur)
		if pass == 0 {
			m = halfTotalWeight(k)
			if m == 0 {
				return top
			}
		}
		comm, moved := queueMovePar(cur, k, m, threads, opt.MaxIterations)
		refined, _ := unguardedRefinePar(cur, k, m, comm, threads)
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

// queuePassCap bounds the number of aggregation levels, mirroring
// NetworKit ParallelLeiden's fixed pass budget (the paper's driver
// limits it to a fixed number of passes). Long-diameter graphs (road
// networks, k-mer chains) need many more levels to coarsen, which is
// exactly where the paper measures NetworKit's quality loss.
const queuePassCap = 3

// lockStripes stripes per-community mutexes so Σ updates and membership
// writes are consistent without a lock per community.
const lockStripes = 1024

type stripedLocks [lockStripes]sync.Mutex

func (s *stripedLocks) lockPair(a, b uint32) (unlock func()) {
	ia := a % lockStripes
	ib := b % lockStripes
	if ia == ib {
		s[ia].Lock()
		return func() { s[ia].Unlock() }
	}
	if ia > ib {
		ia, ib = ib, ia
	}
	s[ia].Lock()
	s[ib].Lock()
	return func() { s[ib].Unlock(); s[ia].Unlock() }
}

// queueMovePar is the queue-driven parallel local-moving phase: workers
// pop vertices off a shared queue, evaluate the best move, and apply it
// under per-community locks, re-enqueueing affected neighbours.
func queueMovePar(g *graph.CSR, k []float64, m float64, threads, maxIter int) ([]uint32, int64) {
	n := g.NumVertices()
	comm := make([]uint32, n)
	sigma := parallel.NewFloat64s(n)
	//gvevet:exclusive single-threaded setup: no workers have been released yet
	for i := 0; i < n; i++ {
		comm[i] = uint32(i)
		sigma.Set(i, k[i])
	}
	var locks stripedLocks
	inQueue := make([]uint32, n)
	queue := make([]uint32, n)
	//gvevet:exclusive single-threaded setup: no workers have been released yet
	for i := range queue {
		queue[i] = uint32(i)
		inQueue[i] = 1
	}
	var qmu sync.Mutex
	var moves atomic.Int64
	var processed atomic.Int64
	budget := int64(maxIter) * int64(n)

	pop := func() (uint32, bool) {
		qmu.Lock()
		defer qmu.Unlock()
		if len(queue) == 0 {
			return 0, false
		}
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		atomic.StoreUint32(&inQueue[u], 0)
		return u, true
	}
	push := func(vs []uint32) {
		qmu.Lock()
		for _, v := range vs {
			if atomic.CompareAndSwapUint32(&inQueue[v], 0, 1) {
				queue = append(queue, v)
			}
		}
		qmu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func() {
			defer wg.Done()
			weights := make(map[uint32]float64, 16)
			var requeue []uint32
			for {
				u, ok := pop()
				if !ok {
					return
				}
				if processed.Add(1) > budget {
					return
				}
				d := atomic.LoadUint32(&comm[u])
				for c := range weights {
					delete(weights, c)
				}
				es, ws := g.Neighbors(u)
				for kk, e := range es {
					if e == u {
						continue
					}
					weights[atomic.LoadUint32(&comm[e])] += float64(ws[kk])
				}
				kid := weights[d]
				best := d
				bestDQ := 0.0
				for c, kic := range weights {
					if c == d {
						continue
					}
					dq := deltaQ(kic, kid, k[u], sigma.Get(int(c)), sigma.Get(int(d)), m)
					if dq > bestDQ || (dq == bestDQ && dq > 0 && c < best) {
						bestDQ = dq
						best = c
					}
				}
				if bestDQ <= 0 || best == d {
					continue
				}
				unlock := locks.lockPair(d, best)
				// Re-validate under the locks (the NetworKit pattern).
				if atomic.LoadUint32(&comm[u]) == d {
					sigma.Add(int(d), -k[u])
					sigma.Add(int(best), k[u])
					atomic.StoreUint32(&comm[u], best)
					moves.Add(1)
				}
				unlock()
				requeue = requeue[:0]
				for _, e := range es {
					if atomic.LoadUint32(&comm[e]) != best {
						requeue = append(requeue, e)
					}
				}
				push(requeue)
			}
		}()
	}
	wg.Wait()
	return comm, moves.Load()
}

// unguardedRefinePar refines within community bounds but lets any vertex
// move (no isolation CAS), in parallel — the implementation slip that
// produces disconnected communities in the systems the paper measures.
func unguardedRefinePar(g *graph.CSR, k []float64, m float64, bounds []uint32, threads int) ([]uint32, int64) {
	n := g.NumVertices()
	comm := make([]uint32, n)
	sigma := parallel.NewFloat64s(n)
	//gvevet:exclusive single-threaded setup: no workers have been released yet
	for i := 0; i < n; i++ {
		comm[i] = uint32(i)
		sigma.Set(i, k[i])
	}
	var locks stripedLocks
	var moves atomic.Int64
	for sweep := 0; sweep < 2; sweep++ {
		parallel.Default().For(n, threads, 512, func(lo, hi, _ int) {
			weights := make(map[uint32]float64, 16)
			for i := lo; i < hi; i++ {
				u := uint32(i)
				c := atomic.LoadUint32(&comm[u])
				for cc := range weights {
					delete(weights, cc)
				}
				es, ws := g.Neighbors(u)
				for kk, e := range es {
					if e == u || bounds[e] != bounds[u] {
						continue
					}
					weights[atomic.LoadUint32(&comm[e])] += float64(ws[kk])
				}
				kid := weights[c]
				best := c
				bestDQ := 0.0
				for cc, kic := range weights {
					if cc == c {
						continue
					}
					dq := deltaQ(kic, kid, k[u], sigma.Get(int(cc)), sigma.Get(int(c)), m)
					if dq > bestDQ {
						bestDQ = dq
						best = cc
					}
				}
				if bestDQ <= 0 || best == c {
					continue
				}
				unlock := locks.lockPair(c, best)
				if atomic.LoadUint32(&comm[u]) == c {
					sigma.Add(int(c), -k[u])
					sigma.Add(int(best), k[u])
					atomic.StoreUint32(&comm[u], best)
					moves.Add(1)
				}
				unlock()
			}
		})
	}
	return comm, moves.Load()
}
