package core

import "gveleiden/internal/graph"

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
// label's members on the pool (splitComponents), in the workspace's
// split buffers. It is a pure function of g and labels, so
// deterministic mode stays reproducible.
func (ws *workspace) splitConnected(g *graph.CSR, labels []uint32) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	pool, threads := ws.opt.Pool, ws.opt.Threads
	out, queue := ws.splitScratch(n)
	off, vtx := ws.members(labels[:n], n)
	pool.FillUint32(out, unseen, threads)
	splits := int(ws.splitComponents(g, labels[:n], off, vtx, out, queue))
	if splits > 0 {
		copy(labels, out)
	}
	return splits
}

// unseen marks a vertex no component search has reached yet.
const unseen = ^uint32(0)

// splitComponents names every grouped vertex in out after the smallest
// vertex of its connected component within its group, and returns the
// number of components beyond one per group that has any. Group c is
// the vertices in vtx[off[c]:off[c+1]] labelled c; a listed vertex with
// another label is in no group, and its out entry is left alone. out
// must read unseen for every grouped vertex, and queue holds one slot
// per listed vertex. A breadth-first search runs from each grouped
// vertex not yet reached, over neighbours of the same label. Each
// group's task reads and writes only its own vertices' out entries, so
// the groups run on the pool without atomics.
func (ws *workspace) splitComponents(g *graph.CSR, labels, off, vtx, out, queue []uint32) int64 {
	pool, threads := ws.opt.Pool, ws.opt.Threads
	groups := len(off) - 1
	ws.zeroMoved()
	pool.For(groups, threads, 1, func(lo, hi, tid int) {
		var extra int64
		for c := lo; c < hi; c++ {
			q := queue[off[c]:off[c+1]]
			comps := int64(0)
			for _, s := range vtx[off[c]:off[c+1]] {
				if labels[s] != uint32(c) || out[s] != unseen {
					continue
				}
				comps++
				out[s] = s
				q[0] = s
				root, size := s, 1
				for head := 0; head < size; head++ {
					es, _ := g.Neighbors(q[head])
					for _, e := range es {
						if labels[e] == uint32(c) && out[e] == unseen {
							out[e] = s
							q[size] = e
							size++
							root = min(root, e)
						}
					}
				}
				if root != s {
					for _, v := range q[:size] {
						out[v] = root
					}
				}
			}
			if comps > 1 {
				extra += comps - 1
			}
		}
		ws.moved[tid].V += extra
	})
	return ws.sumMoved()
}
