package stream

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gveleiden/internal/graph"
)

// Graph is a mutable weighted undirected graph: an immutable canonical
// base CSR plus an overlay holding the final state of every pair
// changed since the base was built. Canonical means compact, with
// strictly ascending adjacency, positive finite weights and exactly
// mirrored arcs. A lookup checks the overlay first, then
// binary-searches the base. Not safe for concurrent mutation; no CSR a
// Graph has adopted or returned is ever written, so snapshots are
// independent of later mutations.
type Graph struct {
	base    *graph.CSR
	overlay map[uint64]graph.DeltaState // PairKey → state since base
	n       int                         // vertex count, ≥ base's
	edges   int64                       // undirected edge count (loops count once)
}

// New returns a mutable graph with n initial vertices.
func New(n int) *Graph {
	return &Graph{
		base:    &graph.CSR{Offsets: make([]uint32, n+1)},
		overlay: map[uint64]graph.DeltaState{},
		n:       n,
	}
}

// FromCSR returns a mutable graph holding g. A canonical g is adopted
// as the base without copying, so the caller must not modify it
// afterwards; until a mutation, Snapshot returns g itself. Any other g
// goes through the overlay one arc (i,j), i ≤ j, at a time under
// AddEdge's rules: parallel arcs are summed, an edge whose summed
// weight is ≤ 0 is dropped, and a non-finite weight is skipped. A
// mirrored arc (j,i) is not read, so an asymmetric g takes its upper
// triangle.
func FromCSR(g *graph.CSR) *Graph {
	if edges, ok := canonical(g); ok {
		return &Graph{base: g, overlay: map[uint64]graph.DeltaState{}, n: g.NumVertices(), edges: edges}
	}
	n := g.NumVertices()
	s := New(n)
	for i := 0; i < n; i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if uint32(i) <= e {
				_ = s.AddEdge(uint32(i), e, ws[k]) // a non-finite weight is skipped, as documented
			}
		}
	}
	return s
}

// canonical reports whether g can serve as a base as it is, and its
// undirected edge count if so. One pass with one cursor per vertex
// checks the mirror arcs: visiting vertices in ascending order, the
// arc (j,i) of every arc (i,j), j > i, must be the next unmatched arc
// of j's list, and every arc (i,x), x < i, must have been matched
// before i is reached.
func canonical(g *graph.CSR) (int64, bool) {
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

// NumVertices returns the current vertex count.
func (s *Graph) NumVertices() int { return s.n }

// NumEdges returns the current undirected edge count.
func (s *Graph) NumEdges() int64 { return s.edges }

// ensure grows the vertex set to cover id v.
func (s *Graph) ensure(v uint32) {
	if int(v) >= s.n {
		s.n = int(v) + 1
	}
}

// lookup returns the weight of edge {u,v} and whether it exists.
func (s *Graph) lookup(u, v uint32) (float32, bool) {
	if st, ok := s.overlay[graph.PairKey(u, v)]; ok {
		return st.W, st.Present
	}
	return s.inBase(u, v)
}

// inBase returns the weight of arc (u,v) in the base and whether it
// exists there.
func (s *Graph) inBase(u, v uint32) (float32, bool) {
	if int(u) >= s.base.NumVertices() {
		return 0, false
	}
	es, ws := s.base.Neighbors(u)
	if k, ok := slices.BinarySearch(es, v); ok {
		return ws[k], true
	}
	return 0, false
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (s *Graph) HasEdge(u, v uint32) bool {
	_, ok := s.lookup(u, v)
	return ok
}

// Weight returns the weight of edge {u,v}, 0 if absent.
func (s *Graph) Weight(u, v uint32) float32 {
	w, _ := s.lookup(u, v)
	return w
}

// AddEdge inserts {u,v} with weight w, adding w to an existing edge.
// Self-loops are allowed. New endpoints grow the vertex set.
//
// Weights follow the unified delta semantics (graph.EvaluateDelta): a
// non-finite w, or a summed weight that overflows float32, is rejected
// with an error and the graph is untouched; a summed weight of zero or
// below cancels the edge entirely, so the graph can never materialize a
// CSR the readers' weight validation would reject.
func (s *Graph) AddEdge(u, v uint32, w float32) error {
	if math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
		return fmt.Errorf("stream: edge {%d,%d}: non-finite weight %v", u, v, w)
	}
	sum := s.Weight(u, v) + w
	if math.IsInf(float64(sum), 0) {
		return fmt.Errorf("stream: edge {%d,%d}: summed weight overflows float32", u, v)
	}
	s.ensure(u)
	s.ensure(v)
	if sum <= 0 {
		s.set(graph.PairKey(u, v), graph.DeltaState{})
	} else {
		s.set(graph.PairKey(u, v), graph.DeltaState{Present: true, W: sum})
	}
	return nil
}

// set records the final state of pair k in the overlay, keeping the
// edge count. Callers ensure the vertex set first.
func (s *Graph) set(k uint64, st graph.DeltaState) {
	_, had := s.lookup(graph.SplitPairKey(k))
	switch {
	case had && !st.Present:
		s.edges--
	case !had && st.Present:
		s.edges++
	case !had:
		return // absent before and after: nothing to record
	}
	s.overlay[k] = st
}

// RemoveEdge deletes {u,v} entirely, reporting whether it existed.
func (s *Graph) RemoveEdge(u, v uint32) bool {
	if !s.HasEdge(u, v) {
		return false
	}
	s.set(graph.PairKey(u, v), graph.DeltaState{})
	return true
}

// Degree returns u's current neighbour count (loop counts once). It
// scans every pending pair, so it costs O(P log deg) for P pending
// pairs.
func (s *Graph) Degree(u uint32) int {
	d := 0
	if int(u) < s.base.NumVertices() {
		d = int(s.base.Degree(u))
	}
	for k, st := range s.overlay {
		a, b := graph.SplitPairKey(k)
		if a != u && b != u {
			continue
		}
		if _, was := s.inBase(a, b); st.Present && !was {
			d++
		} else if !st.Present && was {
			d--
		}
	}
	return d
}

// Apply applies a batch under the unified delta semantics shared with
// graph.ApplyDelta (see graph.EvaluateDelta): deletions first, then
// insertions; every deletion must name a distinct existing edge;
// insertion weights must be finite. The whole batch is validated before
// anything mutates, so a rejected batch is a no-op — the graph stays
// bit-identical, which is what lets a long-running ingest path survive
// a desynchronized batch.
func (s *Graph) Apply(insertions, deletions []graph.Edge) error {
	touched, err := graph.EvaluateDelta(s.lookup, insertions, deletions)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	// The batch is valid: apply the final per-pair states. Insertions
	// grow the vertex set even when their edge cancelled within the
	// batch, matching a sequential AddEdge replay.
	for _, e := range insertions {
		s.ensure(e.U)
		s.ensure(e.V)
	}
	for k, st := range touched {
		s.set(k, st)
	}
	return nil
}

// Snapshot returns the current state as a canonical CSR — the input
// format of the detection algorithms, bit-identical to what
// graph.ApplyDelta builds from the same batches. It merges the base
// with the sorted overlay in one linear pass, and the result becomes
// the new base; with nothing pending it returns the base unchanged.
// The returned CSR is shared with the graph and never written again,
// so it stays valid across later mutations. O(N + M + P log P) for P
// pending pairs.
func (s *Graph) Snapshot() *graph.CSR {
	if len(s.overlay) == 0 && s.n == s.base.NumVertices() {
		return s.base
	}
	s.base = merge(s.base, s.n, s.overlay)
	s.overlay = map[uint64]graph.DeltaState{}
	return s.base
}

// arc is one direction of an overlay pair, keyed src<<32 | dst so that
// sorting by key orders arcs by source, then target.
type arc struct {
	key uint64
	st  graph.DeltaState
}

// merge builds the canonical CSR over n vertices that the base with
// the overlay applied describes: each vertex's sorted base list merged
// with its sorted overlay arcs, an overlay arc replacing the base arc
// with the same target.
func merge(base *graph.CSR, n int, overlay map[uint64]graph.DeltaState) *graph.CSR {
	arcs := make([]arc, 0, 2*len(overlay))
	grow := 0
	for k, st := range overlay {
		u, v := graph.SplitPairKey(k)
		arcs = append(arcs, arc{uint64(u)<<32 | uint64(v), st})
		if u != v {
			arcs = append(arcs, arc{uint64(v)<<32 | uint64(u), st})
		}
		if st.Present {
			grow += 2
		}
	}
	slices.SortFunc(arcs, func(a, b arc) int { return cmp.Compare(a.key, b.key) })

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
