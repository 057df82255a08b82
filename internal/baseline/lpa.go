package baseline

import (
	"sort"
	"sync/atomic"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
	"gveleiden/internal/prng"
)

// LabelPropagation implements the classic LPA community detector
// (Raghavan et al. 2007), the other fast heuristic family the
// community-detection literature measures Louvain/Leiden against
// (cf. [10] in the paper). Each vertex repeatedly adopts the label
// carried by the plurality weight of its neighbours; ties break towards
// the smaller label with a seeded random nudge. LPA is O(iterations·M)
// with no quality function — fast but with no modularity or
// connectivity guarantees, which the supplementary comparison shows.
func LabelPropagation(g *graph.CSR, opt Options) []uint32 {
	opt = opt.normalized()
	threads := opt.Threads
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	n := g.NumVertices()
	labels := make([]uint32, n)
	//gvevet:exclusive single-threaded setup: no workers have been released yet
	for i := range labels {
		labels[i] = uint32(i)
	}
	if n == 0 {
		return labels
	}
	rngs := prng.Streams(opt.Seed, threads)
	maxIter := opt.MaxIterations
	if maxIter > 50 {
		maxIter = 50
	}
	for it := 0; it < maxIter; it++ {
		var changes atomic.Int64
		parallel.Default().For(n, threads, 512, func(lo, hi, tid int) {
			weights := make(map[uint32]float64, 16)
			rng := rngs[tid]
			for i := lo; i < hi; i++ {
				u := uint32(i)
				es, ws := g.Neighbors(u)
				if len(es) == 0 {
					continue
				}
				for k := range weights {
					delete(weights, k)
				}
				for k, e := range es {
					if e == u {
						continue
					}
					weights[atomic.LoadUint32(&labels[e])] += float64(ws[k])
				}
				cur := atomic.LoadUint32(&labels[u])
				// Find the maximal plurality weight, then — the standard
				// LPA rule — keep the current label whenever it is among
				// the maximal ones (prevents label epidemics across
				// bridges); otherwise pick a random maximal label.
				bestW := 0.0
				for _, w := range weights {
					if w > bestW {
						bestW = w
					}
				}
				if bestW == 0 || weights[cur] == bestW {
					continue
				}
				var candidates []uint32
				for l, w := range weights {
					if w == bestW {
						candidates = append(candidates, l)
					}
				}
				best := candidates[0]
				if len(candidates) > 1 {
					// Map iteration order is random; sort so the seeded
					// rng choice is reproducible for a fixed seed.
					sort.Slice(candidates, func(a, b int) bool {
						return candidates[a] < candidates[b]
					})
					best = candidates[int(rng.Uintn(uint32(len(candidates))))]
				}
				atomic.StoreUint32(&labels[u], best)
				changes.Add(1)
			}
		})
		if changes.Load() == 0 {
			break
		}
	}
	return densify(labels) //gvevet:exclusive parallel rounds are over: densify runs sequentially after the final region barrier
}
