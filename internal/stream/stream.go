package stream

import (
	"fmt"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// Graph is a mutable weighted undirected graph: an immutable canonical
// base CSR (see graph.Canonical) plus an overlay holding the final
// state of every pair changed since the base was built. A lookup
// checks the overlay first, then binary-searches the base. Not safe
// for concurrent mutation; no CSR a Graph has adopted or returned is
// ever written, so snapshots are independent of later mutations.
type Graph struct {
	base    *graph.CSR
	overlay map[uint64]graph.DeltaState // PairKey → state since base
	n       int                         // vertex count, ≥ base's
	edges   int64                       // undirected edge count (loops count once)
}

// FromCSR returns a mutable graph holding g, normalized by
// graph.Canonical. A canonical g is adopted as the base without
// copying, so the caller must not modify it afterwards; until a
// mutation, Snapshot returns g itself. Any other g is replaced by the
// canonical graph it describes: parallel arcs are summed, an edge
// whose summed weight is ≤ 0 is dropped, a non-finite weight is
// skipped, and an asymmetric g takes its upper triangle.
func FromCSR(g *graph.CSR) *Graph {
	base, edges := graph.Canonical(g)
	return &Graph{base: base, overlay: map[uint64]graph.DeltaState{}, n: base.NumVertices(), edges: edges}
}

// NumVertices returns the current vertex count.
func (s *Graph) NumVertices() int { return s.n }

// NumEdges returns the current undirected edge count.
func (s *Graph) NumEdges() int64 { return s.edges }

// lookup returns the weight of edge {u,v} and whether it exists.
func (s *Graph) lookup(u, v uint32) (float32, bool) {
	if st, ok := s.overlay[graph.PairKey(u, v)]; ok {
		return st.W, st.Present
	}
	return s.base.FindArc(u, v)
}

// set records the final state of pair k in the overlay, keeping the
// edge count.
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
	// batch.
	for _, e := range insertions {
		s.n = max(s.n, int(e.U)+1, int(e.V)+1)
	}
	for k, st := range touched {
		s.set(k, st)
	}
	return nil
}

// Snapshot is SnapshotOn on the default pool with the default thread
// count.
func (s *Graph) Snapshot() *graph.CSR { return s.SnapshotOn(nil, 0) }

// SnapshotOn returns the current state as a canonical CSR — the input
// format of the detection algorithms, bit-identical to what
// graph.ApplyDelta builds from the same batches. It merges the base
// with the overlay in one block-parallel pass on pool p (nil = the
// default pool; graph.MergeDeltaOn), and the result becomes the new
// base; with nothing pending it returns the base unchanged. The
// returned CSR is shared with the graph and never written again, so it
// stays valid across later mutations. O(N + M + P log P) for P pending
// pairs.
func (s *Graph) SnapshotOn(p *parallel.Pool, threads int) *graph.CSR {
	if len(s.overlay) == 0 && s.n == s.base.NumVertices() {
		return s.base
	}
	s.base = graph.MergeDeltaOn(p, s.base, s.n, s.overlay, threads)
	s.overlay = map[uint64]graph.DeltaState{}
	return s.base
}
