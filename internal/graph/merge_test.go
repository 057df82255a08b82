package graph_test

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// mergeArc is one direction of a pair state, keyed src<<32 | dst.
type mergeArc struct {
	key uint64
	st  graph.DeltaState
}

// serialMerge is MergeDelta as it was before the block-parallel
// passes, kept as the reference: one sequential pass that appends each
// vertex's base list merged with its sorted state arcs.
func serialMerge(base *graph.CSR, n int, states map[uint64]graph.DeltaState) *graph.CSR {
	arcs := make([]mergeArc, 0, 2*len(states))
	grow := 0
	for k, st := range states {
		u, v := graph.SplitPairKey(k)
		arcs = append(arcs, mergeArc{uint64(u)<<32 | uint64(v), st})
		if u != v {
			arcs = append(arcs, mergeArc{uint64(v)<<32 | uint64(u), st})
		}
		if st.Present {
			grow += 2
		}
	}
	slices.SortFunc(arcs, func(a, b mergeArc) int { return cmp.Compare(a.key, b.key) })

	capacity := len(base.Edges) + grow
	out := &graph.CSR{
		Offsets: make([]uint32, n+1),
		Edges:   make([]uint32, 0, capacity),
		Weights: make([]float32, 0, capacity),
	}
	a := 0
	for i := 0; i < n; i++ {
		var es []uint32
		var ws []float32
		if i < base.NumVertices() {
			es, ws = base.Neighbors(uint32(i))
		}
		b := 0
		for ; a < len(arcs) && int(arcs[a].key>>32) == i; a++ {
			dst, st := uint32(arcs[a].key), arcs[a].st
			for b < len(es) && es[b] < dst {
				out.Edges = append(out.Edges, es[b])
				out.Weights = append(out.Weights, ws[b])
				b++
			}
			if b < len(es) && es[b] == dst {
				b++
			}
			if st.Present {
				out.Edges = append(out.Edges, dst)
				out.Weights = append(out.Weights, st.W)
			}
		}
		out.Edges = append(out.Edges, es[b:]...)
		out.Weights = append(out.Weights, ws[b:]...)
		out.Offsets[i+1] = uint32(len(out.Edges))
	}
	return out
}

// randomStates returns up to m random pair states over [0, n): present
// ones with weights in (0, 8], absent ones, and self-loops.
func randomStates(rng *rand.Rand, n, m int) map[uint64]graph.DeltaState {
	states := map[uint64]graph.DeltaState{}
	for k := 0; k < m && n > 0; k++ {
		u, v := rng.Uint32N(uint32(n)), rng.Uint32N(uint32(n))
		if rng.IntN(8) == 0 {
			v = u
		}
		st := graph.DeltaState{}
		if rng.IntN(3) > 0 {
			st = graph.DeltaState{Present: true, W: float32(1+rng.IntN(32)) / 4}
		}
		states[graph.PairKey(u, v)] = st
	}
	return states
}

// TestMergeDeltaMatchesSerialReference: on random canonical bases and
// overlays — insertions, deletions, every arc of a vertex deleted,
// self-loops, vertex growth, and an empty overlay — the block-parallel
// merge is byte-identical to the serial merge at 1, 2 and 7 threads.
func TestMergeDeltaMatchesSerialReference(t *testing.T) {
	pool := parallel.NewPool(7)
	defer pool.Close()
	empty := &graph.CSR{Offsets: make([]uint32, 1)}
	cases := []string{"mixed", "delete-vertex", "grow", "empty"}
	for seed := uint64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 5))
		bn := rng.IntN(400)
		if seed%10 == 0 {
			bn = rng.IntN(3) // tiny bases: fewer vertices than blocks
		}
		base := serialMerge(empty, bn, randomStates(rng, bn, 3*bn))
		if c, _ := graph.Canonical(base); c != base {
			t.Fatalf("seed %d: the base is not canonical", seed)
		}
		n := bn
		var states map[uint64]graph.DeltaState
		switch kind := cases[seed%uint64(len(cases))]; kind {
		case "mixed":
			states = randomStates(rng, bn, 1+rng.IntN(60))
			for u := 0; u < bn; u++ { // delete some existing pairs
				es, _ := base.Neighbors(uint32(u))
				for _, e := range es {
					if rng.IntN(10) == 0 {
						states[graph.PairKey(uint32(u), e)] = graph.DeltaState{}
					}
				}
			}
		case "delete-vertex":
			states = randomStates(rng, bn, rng.IntN(20))
			if bn > 0 {
				v := rng.Uint32N(uint32(bn))
				es, _ := base.Neighbors(v)
				for _, e := range es {
					states[graph.PairKey(v, e)] = graph.DeltaState{}
				}
			}
		case "grow":
			n = bn + 1 + rng.IntN(40)
			states = randomStates(rng, n, 1+rng.IntN(80))
		case "empty":
			states = map[uint64]graph.DeltaState{}
			n = bn + rng.IntN(2)
		}
		want := serialMerge(base, n, states)
		for _, threads := range []int{1, 2, 7} {
			got := graph.MergeDeltaOn(pool, base, n, states, threads)
			requireSameBits(t, want, got, fmt.Sprintf("seed %d, %d threads", seed, threads))
		}
	}
}
