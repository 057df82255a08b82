package gveleiden

import (
	"gveleiden/internal/core"
	"gveleiden/internal/graph"
)

// Delta is a batch of edge updates between two graph snapshots.
type Delta = core.Delta

// DynamicMode selects the warm-start strategy of LeidenDynamic.
type DynamicMode = core.DynamicMode

// Dynamic update strategies: DynamicNaive warm-starts every vertex;
// DynamicFrontier reprocesses only the region the batch disturbed.
const (
	DynamicNaive    = core.DynamicNaive
	DynamicFrontier = core.DynamicFrontier
)

// Objective selects the quality function the optimizer maximizes.
type Objective = core.Objective

// Quality functions: classic/generalized modularity, or the
// resolution-limit-free Constant Potts Model.
const (
	ObjectiveModularity = core.ObjectiveModularity
	ObjectiveCPM        = core.ObjectiveCPM
)

// ApplyDelta returns a new snapshot with the batch applied: deletions
// remove undirected edges first, then insertions add (or reinforce)
// them. Every deletion must name a distinct existing edge and every
// insertion weight must be finite; a batch violating either rule
// returns an error and no graph — validation is whole-batch, so a
// rejected delta is a no-op and g is never left half-applied. An
// insertion that drives an edge's summed weight to zero or below
// cancels the edge entirely, and an insertion naming a vertex one past
// the current maximum grows the graph.
//
// The new graph comes from one linear merge of g's sorted adjacency
// with the batch's sorted changes, O(V + E + B log B) for a batch of
// B edges. g itself is never mutated: the input snapshot stays valid
// (and, if it came from a memory-mapped container, read-only) while
// both versions are in use — pass the old membership plus the
// returned graph to LeidenDynamic for a warm-started update.
//
// g is first put in canonical form (compact, strictly ascending
// adjacency, positive finite weights, mirrored arcs), which every
// generator and every graph ApplyDelta returns already has. Any other
// g is normalized the way the resident server normalizes its input:
// parallel arcs (i,j), i ≤ j, are summed in float32 in storage order,
// pairs whose weight is zero or below are dropped — such an edge
// cannot be deleted afterwards — and an asymmetric g contributes its
// upper triangle. The server's ingest path runs the same code, so a
// batch accepted here is accepted there, with the same result.
func ApplyDelta(g *Graph, delta Delta) (*Graph, error) {
	return graph.ApplyDelta(g, delta.Insertions, delta.Deletions)
}

// RandomDelta derives a reproducible random update batch from g, for
// benchmarking the dynamic variants.
func RandomDelta(g *Graph, insertions, deletions int, seed uint64) Delta {
	ins, del := graph.RandomDelta(g, insertions, deletions, seed)
	return Delta{Insertions: ins, Deletions: del}
}

// LeidenDynamic updates communities after a batch of edge changes:
// g is the new snapshot, prev the membership computed on the old one,
// delta the batch separating them. It warm-starts from prev — and, in
// DynamicFrontier mode, initially reprocesses only the vertices the
// batch disturbed — so it is much cheaper than a cold Leiden run while
// keeping the same guarantees (valid partition, no internally-
// disconnected communities).
func LeidenDynamic(g *Graph, prev []uint32, delta Delta, mode DynamicMode, opt Options) *Result {
	return core.LeidenDynamic(g, prev, delta, mode, opt)
}
