package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gveleiden/internal/parallel"
)

// Delta application. The dynamic pipeline applies batches two ways —
// ApplyDelta turns one CSR plus one batch into the next CSR, and
// stream.Graph collects batches in an overlay until Snapshot — and both
// run the same code, so they cannot drift apart: Canonical normalizes
// the input graph, EvaluateDelta validates a batch and computes the
// final state of every pair it touches, and MergeDelta writes those
// states into the next canonical CSR in one linear pass.
//
// A CSR is canonical when it is compact, every adjacency list is
// strictly ascending, every weight is positive and finite, and every
// arc (i,j), i ≠ j, is mirrored by an arc (j,i) of the same weight.
// The generators and MergeDelta produce canonical CSRs.
//
// The unified delta semantics:
//
//  1. Deletions apply first, then insertions — a batch that deletes and
//     re-inserts the same edge replaces its weight.
//  2. Every deletion must name a distinct existing edge. A missing or
//     duplicate deletion fails the whole batch, and a failed batch is a
//     no-op: the graph is left untouched.
//  3. Insertion weights must be finite, and every running per-edge sum
//     must stay finite in float32; violations fail the whole batch.
//  4. An insertion that drives an edge's summed weight to zero or below
//     cancels the edge entirely — it is removed, and a later insertion
//     for the same pair starts fresh from zero. The dynamic pipeline's
//     graph therefore never holds a pair of weight ≤ 0, so every CSR it
//     builds stays canonical.
//  5. Insertions grow the vertex set to cover new endpoints, even when
//     the inserted edge itself is cancelled within the batch.
//
// EvaluateDelta implements rules 1-4 against an abstract current-weight
// lookup; both appliers validate with it first and mutate only on
// success.

// PairKey encodes the unordered vertex pair {u, v} as a single map key.
func PairKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// SplitPairKey decodes a PairKey back into its (min, max) endpoints.
func SplitPairKey(k uint64) (u, v uint32) {
	return uint32(k >> 32), uint32(k)
}

// DeltaState is the post-batch state of one touched unordered pair:
// either present with a final weight, or absent (deleted or cancelled).
type DeltaState struct {
	Present bool
	W       float32
}

// EvaluateDelta validates a batch against the unified delta semantics
// and returns the final state of every pair the batch touches, without
// mutating anything. weight reports the current weight of the edge
// {u, v} and whether it exists; it is never called with endpoints the
// graph cannot answer for (out-of-range ids simply report absence).
// Each pair's weight is summed in float32 in batch order, so applying
// the returned states reproduces a sequential replay of the
// insertions bit for bit.
func EvaluateDelta(weight func(u, v uint32) (float32, bool), insertions, deletions []Edge) (map[uint64]DeltaState, error) {
	touched := make(map[uint64]DeltaState, len(insertions)+len(deletions))
	for _, e := range deletions {
		k := PairKey(e.U, e.V)
		if _, dup := touched[k]; dup {
			return nil, fmt.Errorf("graph: duplicate deletion of edge {%d,%d}", e.U, e.V)
		}
		if _, ok := weight(e.U, e.V); !ok {
			return nil, fmt.Errorf("graph: deletion of missing edge {%d,%d}", e.U, e.V)
		}
		touched[k] = DeltaState{}
	}
	for _, e := range insertions {
		if err := checkWeight(float64(e.W)); err != nil {
			return nil, fmt.Errorf("graph: insertion {%d,%d}: %w", e.U, e.V, err)
		}
		k := PairKey(e.U, e.V)
		st, seen := touched[k]
		if !seen {
			if w, ok := weight(e.U, e.V); ok {
				st = DeltaState{Present: true, W: w}
			}
		}
		sum := st.W + e.W
		if err := checkWeight(float64(sum)); err != nil {
			return nil, fmt.Errorf("graph: insertion {%d,%d}: summed %w", e.U, e.V, err)
		}
		if sum <= 0 {
			touched[k] = DeltaState{}
		} else {
			touched[k] = DeltaState{Present: true, W: sum}
		}
	}
	return touched, nil
}

// ApplyDelta returns a new graph with the given batch of edge updates
// applied to g under the unified delta semantics above (the weight
// field of a deletion is ignored). A batch that names a missing or
// duplicate deletion, or carries a non-finite weight, returns an error
// and no graph. g is never written.
//
// This is the snapshot-update primitive behind the dynamic Leiden
// variants (core.LeidenDynamic): batch updates between runs, warm-start
// from the previous membership. It normalizes g (Canonical), evaluates
// the batch against binary-searched lookups, and merges the result in
// one linear pass (MergeDelta) — the steps stream.Graph runs too, so
// stream.Graph's FromCSR, Apply and Snapshot yield the same CSR, or the
// same error, for the same g and batch.
func ApplyDelta(g *CSR, insertions, deletions []Edge) (*CSR, error) {
	base, _ := Canonical(g)
	touched, err := EvaluateDelta(base.FindArc, insertions, deletions)
	if err != nil {
		return nil, err
	}
	n := base.NumVertices()
	for _, e := range insertions {
		n = max(n, int(e.U)+1, int(e.V)+1)
	}
	return MergeDelta(base, n, touched), nil
}

// Canonical returns g itself, with its undirected edge count (loops
// count once), when g is canonical. Otherwise it builds the canonical
// graph g describes: each arc (i,j), i ≤ j, is read in storage order
// and added to its pair's weight in float32; a sum of zero or below
// cancels the pair, and a non-finite weight or an overflowing sum is
// skipped. A mirror arc (j,i), j > i, is never read, so an asymmetric g
// yields its upper triangle, and a target id past the vertex count
// grows it.
func Canonical(g *CSR) (*CSR, int64) {
	if edges, ok := isCanonical(g); ok {
		return g, edges
	}
	gn := g.NumVertices()
	n := gn
	states := map[uint64]DeltaState{}
	for i := 0; i < gn; i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if uint32(i) > e || checkWeight(float64(ws[k])) != nil {
				continue
			}
			key := PairKey(uint32(i), e)
			sum := states[key].W + ws[k]
			if checkWeight(float64(sum)) != nil {
				continue
			}
			n = max(n, int(e)+1)
			if sum <= 0 {
				states[key] = DeltaState{}
			} else {
				states[key] = DeltaState{Present: true, W: sum}
			}
		}
	}
	c := MergeDelta(&CSR{Offsets: make([]uint32, 1)}, n, states)
	return c, c.NumUndirectedEdges()
}

// isCanonical reports whether g is canonical, and its undirected edge
// count if so. One pass with one cursor per vertex checks the mirror
// arcs: visiting vertices in ascending order, the arc (j,i) of every
// arc (i,j), j > i, must be the next unmatched arc of j's list, and
// every arc (i,x), x < i, must have been matched before i is reached.
func isCanonical(g *CSR) (int64, bool) {
	n := g.NumVertices()
	if g.Counts != nil || g.Offsets[0] != 0 || int(g.Offsets[n]) != len(g.Edges) || len(g.Weights) != len(g.Edges) {
		return 0, false
	}
	for i := 0; i < n; i++ {
		if g.Offsets[i] > g.Offsets[i+1] {
			return 0, false
		}
	}
	next := make([]uint32, n)
	copy(next, g.Offsets[:n])
	var loops int64
	for i := 0; i < n; i++ {
		lo, hi := g.Offsets[i], g.Offsets[i+1]
		if next[i] < hi && g.Edges[next[i]] < uint32(i) {
			return 0, false
		}
		for k := lo; k < hi; k++ {
			e, w := g.Edges[k], g.Weights[k]
			if int(e) >= n || !(w > 0 && w <= math.MaxFloat32) || (k > lo && g.Edges[k-1] >= e) {
				return 0, false
			}
			switch {
			case e == uint32(i):
				loops++
			case e > uint32(i):
				m := next[e]
				if m >= g.Offsets[e+1] || g.Edges[m] != uint32(i) || g.Weights[m] != w {
					return 0, false
				}
				next[e]++
			}
		}
	}
	return (int64(len(g.Edges))-loops)/2 + loops, true
}

// FindArc returns the weight of the arc (u,v) and whether it exists,
// binary-searching u's list; g must have strictly ascending adjacency
// (a canonical g does). A u past the vertex count reports absence.
func (g *CSR) FindArc(u, v uint32) (float32, bool) {
	if int(u) >= g.NumVertices() {
		return 0, false
	}
	es, ws := g.Neighbors(u)
	if k, ok := slices.BinarySearch(es, v); ok {
		return ws[k], true
	}
	return 0, false
}

// arc is one direction of a pair state, keyed src<<32 | dst so that
// sorting by key orders arcs by source, then target.
type arc struct {
	key uint64
	st  DeltaState
}

// MergeDelta is MergeDeltaOn on the default pool with the default
// thread count.
func MergeDelta(base *CSR, n int, states map[uint64]DeltaState) *CSR {
	return MergeDeltaOn(nil, base, n, states, 0)
}

// MergeDeltaOn returns the canonical CSR over n vertices (n at least
// base's vertex count) that results from setting every pair in states
// to its state on the canonical base: each vertex's base list merged
// with its sorted state arcs, a state arc replacing the base arc with
// the same target. base is only read, and n must cover every endpoint
// in states. It runs on pool p (nil = the default pool) with up to
// threads participants (≤ 0: the default count), in two passes over
// the same contiguous vertex blocks: the first counts each block's
// output arcs, a scan over the block counts places the blocks, and the
// second writes each block's rows from its place. Every row is merged
// exactly as one sequential pass would, so the CSR is the same at
// every thread count. O(N + M + P log P) for P pairs.
func MergeDeltaOn(p *parallel.Pool, base *CSR, n int, states map[uint64]DeltaState, threads int) *CSR {
	if p == nil {
		p = parallel.Default()
	}
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	arcs := make([]arc, 0, 2*len(states))
	//gvevet:ignore nodeterm the arcs are sorted by their distinct keys below
	for k, st := range states {
		u, v := SplitPairKey(k)
		arcs = append(arcs, arc{uint64(u)<<32 | uint64(v), st})
		if u != v {
			arcs = append(arcs, arc{uint64(v)<<32 | uint64(u), st})
		}
	}
	slices.SortFunc(arcs, func(a, b arc) int { return cmp.Compare(a.key, b.key) })
	// firstArc returns the index of the first state arc out of a vertex
	// ≥ v.
	firstArc := func(v int) int {
		a, _ := slices.BinarySearchFunc(arcs, uint64(v)<<32, func(x arc, key uint64) int { return cmp.Compare(x.key, key) })
		return a
	}
	bn := base.NumVertices()

	// Pass 1: a block's output arcs are its base arcs, plus one for each
	// state arc that adds a pair, minus one for each that removes one.
	place := make([]parallel.Padded[uint32], max(min(threads, n), 1))
	p.Blocks(n, threads, func(b, lo, hi int) {
		count := base.Offsets[min(hi, bn)] - base.Offsets[min(lo, bn)]
		for a := firstArc(lo); a < len(arcs) && int(arcs[a].key>>32) < hi; a++ {
			u, v := SplitPairKey(arcs[a].key)
			_, had := base.FindArc(u, v)
			switch present := arcs[a].st.Present; {
			case present && !had:
				count++
			case !present && had:
				count--
			}
		}
		place[b].V = count
	})
	var total uint32
	for b := range place {
		count := place[b].V
		place[b].V = total
		total += count
	}

	// Pass 2: each block writes its rows from its place. A run of
	// vertices without state arcs copies its base rows in one piece.
	out := &CSR{
		Offsets: make([]uint32, n+1),
		Edges:   make([]uint32, total),
		Weights: make([]float32, total),
	}
	p.Blocks(n, threads, func(b, lo, hi int) {
		at := place[b].V
		a := firstArc(lo)
		for i := lo; i < hi; {
			next := hi
			if a < len(arcs) {
				next = min(next, int(arcs[a].key>>32))
			}
			if i < next {
				// Vertices i..next-1 keep their base rows (none past bn).
				from, to := base.Offsets[min(i, bn)], base.Offsets[min(next, bn)]
				copy(out.Edges[at:], base.Edges[from:to])
				copy(out.Weights[at:], base.Weights[from:to])
				for v := i; v < next; v++ {
					out.Offsets[v+1] = at + base.Offsets[min(v+1, bn)] - from
				}
				at += to - from
				i = next
				continue
			}
			var es []uint32
			var ws []float32
			if i < bn {
				es, ws = base.Neighbors(uint32(i))
			}
			k := 0
			emit := func(e uint32, w float32) {
				out.Edges[at], out.Weights[at] = e, w
				at++
			}
			for ; a < len(arcs) && int(arcs[a].key>>32) == i; a++ {
				dst, st := uint32(arcs[a].key), arcs[a].st
				for k < len(es) && es[k] < dst {
					emit(es[k], ws[k])
					k++
				}
				if k < len(es) && es[k] == dst {
					k++
				}
				if st.Present {
					emit(dst, st.W)
				}
			}
			for ; k < len(es); k++ {
				emit(es[k], ws[k])
			}
			out.Offsets[i+1] = at
			i++
		}
	})
	return out
}

// RandomDelta derives a reproducible random batch of updates from g for
// benchmarking dynamic algorithms: nIns random new edges between
// existing vertices and nDel random existing edges. The xorshift step
// is inlined to keep the graph package dependency-free.
func RandomDelta(g *CSR, nIns, nDel int, seed uint64) (insertions, deletions []Edge) {
	state := uint32(seed*2654435761 + 1)
	next := func() uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	n := uint32(g.NumVertices())
	if n < 2 {
		return nil, nil
	}
	for len(insertions) < nIns {
		u := next() % n
		v := next() % n
		if u == v || g.HasArc(u, v) {
			continue
		}
		insertions = append(insertions, Edge{U: u, V: v, W: 1})
	}
	seen := make(map[uint64]struct{}, nDel)
	for attempts := 0; len(deletions) < nDel && attempts < 64*(nDel+1); attempts++ {
		u := next() % n
		deg := g.Degree(u)
		if deg == 0 {
			continue
		}
		es, _ := g.Neighbors(u)
		v := es[next()%deg]
		if u == v {
			continue
		}
		k := PairKey(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		deletions = append(deletions, Edge{U: u, V: v, W: 1})
	}
	return insertions, deletions
}
