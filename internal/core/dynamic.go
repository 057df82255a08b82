package core

import (
	"slices"

	"gveleiden/internal/graph"
)

// The paper closes §4.1 noting that the refine-based labelling "may be
// more suitable for the design of dynamic Leiden algorithm (for dynamic
// graphs)". This file implements that future-work direction with the
// two standard strategies for updating communities after a batch of
// edge changes, following the dynamic-community-detection literature
// the paper builds on (Naive-dynamic warm starts and Dynamic Frontier
// marking, cf. Sahu's companion dynamic works):
//
//   - DynamicNaive re-runs the full algorithm but warm-starts pass 0
//     from the previous membership, so convergence takes few iterations.
//   - DynamicFrontier additionally seeds the pruning flags with only the
//     vertices incident to the batch (insertions that cross communities,
//     deletions inside a community), so pass 0 touches only the region
//     the batch disturbed; the flags propagate outward as vertices move.

// Delta is a batch of edge updates between two graph snapshots.
type Delta struct {
	// Insertions are new undirected edges (weights respected).
	Insertions []graph.Edge
	// Deletions remove undirected edges entirely (weights ignored).
	Deletions []graph.Edge
}

// DynamicMode selects the warm-start strategy of LeidenDynamic.
type DynamicMode int

const (
	// DynamicNaive warm-starts from the previous membership and lets
	// every vertex reconsider its community.
	DynamicNaive DynamicMode = iota
	// DynamicFrontier warm-starts and initially reprocesses only the
	// vertices whose incident edges changed disruptively.
	DynamicFrontier
)

func (m DynamicMode) String() string {
	switch m {
	case DynamicNaive:
		return "naive-dynamic"
	case DynamicFrontier:
		return "dynamic-frontier"
	}
	return "unknown"
}

// LeidenDynamic updates a community structure after a batch of edge
// changes. g must be the *new* snapshot (e.g. graph.ApplyDelta of the
// old one), prev the membership computed on the old snapshot, and delta
// the batch that separates them. Vertices beyond len(prev) (newly
// added) start as singletons. The result carries the same guarantees as
// Leiden: a valid dense partition with no internally-disconnected
// communities.
func LeidenDynamic(g *graph.CSR, prev []uint32, delta Delta, mode DynamicMode, opt Options) *Result {
	res, _ := runLeidenDynamic(g, prev, delta, mode, opt, false)
	return res
}

// LeidenDynamicHierarchy is LeidenDynamic additionally recording the
// full dendrogram, exactly as LeidenHierarchy does for a cold run —
// the resident server uses it so hierarchy drill-down stays available
// across warm-started recomputes.
func LeidenDynamicHierarchy(g *graph.CSR, prev []uint32, delta Delta, mode DynamicMode, opt Options) (*Result, *Hierarchy) {
	return runLeidenDynamic(g, prev, delta, mode, opt, true)
}

func runLeidenDynamic(g *graph.CSR, prev []uint32, delta Delta, mode DynamicMode, opt Options, hierarchy bool) (*Result, *Hierarchy) {
	opt = opt.normalize()
	ws := newWorkspace(g, opt)
	if hierarchy {
		ws.hierarchy = &Hierarchy{}
	}
	n := g.NumVertices()

	bound := min(len(prev), n) // the delta may shrink the vertex set (not typical)
	warm := warmLabels(prev[:bound], n)
	ws.warm = warm

	if mode == DynamicFrontier {
		ws.frontier = frontierOf(warm, delta, bound, n)
	}

	return ws.leiden(g), ws.hierarchy
}

// warmLabels turns the previous membership into warm-start labels for
// n ≥ len(prev) vertices. Labels must be vertex ids of the new graph,
// so each previous community is named by its first member; new
// vertices name themselves (their own ids cannot collide with
// representatives, which are old-vertex ids). prev is normally a dense
// membership, so a slice indexed by label holds the representatives; a
// label at or past len(prev) falls back to a map.
func warmLabels(prev []uint32, n int) []uint32 {
	const none = ^uint32(0)
	warm := make([]uint32, n)
	first := make([]uint32, len(prev))
	for c := range first {
		first[c] = none
	}
	var far map[uint32]uint32
	for i, c := range prev {
		if int(c) >= len(prev) {
			if far == nil {
				far = map[uint32]uint32{}
			}
			if _, ok := far[c]; !ok {
				far[c] = uint32(i)
			}
			warm[i] = far[c]
			continue
		}
		if first[c] == none {
			first[c] = uint32(i)
		}
		warm[i] = first[c]
	}
	for i := len(prev); i < n; i++ {
		warm[i] = uint32(i)
	}
	return warm
}

// frontierOf applies the dynamic-frontier marking rule: an inserted
// edge matters when it crosses communities (its endpoints might now
// merge); a deleted edge matters when it was internal (its community
// might now split). New vertices are always marked.
func frontierOf(warm []uint32, delta Delta, firstNew, n int) []uint32 {
	marked := make(map[uint32]struct{}, 2*(len(delta.Insertions)+len(delta.Deletions)))
	mark := func(v uint32) {
		if int(v) < n {
			marked[v] = struct{}{}
		}
	}
	in := func(v uint32) bool { return int(v) < n }
	for _, e := range delta.Insertions {
		if !in(e.U) || !in(e.V) {
			continue
		}
		if warm[e.U] != warm[e.V] {
			mark(e.U)
			mark(e.V)
		}
	}
	for _, e := range delta.Deletions {
		if !in(e.U) || !in(e.V) {
			continue
		}
		if warm[e.U] == warm[e.V] {
			mark(e.U)
			mark(e.V)
		}
	}
	// New vertices always start unprocessed: they are singletons that
	// have never chosen a community.
	for v := firstNew; v < n; v++ {
		mark(uint32(v))
	}
	out := make([]uint32, 0, len(marked))
	//gvevet:ignore nodeterm the keys are sorted below before anything consumes them
	for v := range marked {
		out = append(out, v)
	}
	// The frontier seeds the pruning flags and the flag-seeding order is
	// observable in deterministic mode, so hand it over sorted rather
	// than in map order.
	slices.Sort(out)
	return out
}
