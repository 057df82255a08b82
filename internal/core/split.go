package core

import (
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// splitConnected rewrites labels, vertex ids of g, so that every
// community is connected in g: each connected component of the
// subgraph induced by a label becomes its own community, named by its
// minimum vertex id. It returns the number of extra components carved
// off; when that is zero (every community already connected — the
// overwhelmingly common case) labels are left untouched.
//
// Leiden's refinement keeps every *refined* sub-community connected, so
// super-vertices are connected at every level — but the flat result the
// algorithm converges to is the last pass's local-moving partition,
// which groups whole super-vertices exactly like Louvain groups vertices
// and can therefore be internally disconnected (the Figure 6d mechanism:
// the connector of two regions moves out and nothing re-examines the
// rest). Splitting such a community into its components restores the
// paper's connectivity guarantee and strictly increases both modularity
// (Σ_c² shrinks, σ_c is preserved — components share no edges) and CPM
// (the n_c(n_c−1)/2 penalty shrinks), so it never trades quality for
// connectivity.
//
// The split indexes the labels' members (members) and searches each
// label's members on the pool (quality.ComponentsOn), in the
// workspace's split buffers. It is a pure function of g and labels, so
// deterministic mode stays reproducible.
func (ws *workspace) splitConnected(g *graph.CSR, labels []uint32) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	out, queue := ws.splitScratch(n)
	off, vtx := ws.members(labels[:n], n)
	extra, _ := quality.ComponentsOn(ws.opt.Pool, ws.opt.Threads, g, labels[:n], off, vtx, ws.marks(n), queue, out)
	if extra > 0 {
		copy(labels, out)
	}
	return int(extra)
}
