package core

import (
	"slices"

	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
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
	res, _ := runLeidenDynamic(g, prev, nil, delta, mode, opt, false)
	return res
}

// LeidenDynamicHierarchy is LeidenDynamic additionally recording the
// full dendrogram, exactly as LeidenHierarchy does for a cold run. It
// is LeidenDynamicFrom without a previous dendrogram: pass 0 refines
// every vertex from a singleton and the run rebuilds the dendrogram
// from the input vertices up.
func LeidenDynamicHierarchy(g *graph.CSR, prev []uint32, delta Delta, mode DynamicMode, opt Options) (*Result, *Hierarchy) {
	return LeidenDynamicFrom(g, prev, nil, delta, mode, opt)
}

// LeidenDynamicFrom is LeidenDynamicHierarchy resumed from the
// dendrogram prevH of the run that computed prev; the resident server
// passes each published snapshot's Hierarchy. Pass 0 runs the
// warm-started move phase as LeidenDynamic does, then takes units
// inherited from prevH as its refined partition instead of refining
// every vertex from a singleton (see inheritUnits), so aggregation
// collapses the graph into about as many super-vertices as there are
// units, and the run goes a few passes deep instead of rebuilding the
// dendrogram. Later passes run exactly as in any other run. The units
// are a full dendrogram's last-level super-vertices, or a resumed
// one's Levels[0]: the units that run inherited, patched by its
// movers, its new vertices and its component split.
//
// The returned dendrogram records the levels this run built: its
// Level 0 partitions the input vertices into the inherited units, so it
// is shallower than a cold run's. Result carries the same guarantees as
// Leiden's.
//
// A resumed run only patches the partition it inherits, where a run
// that refines pass 0 from singletons re-optimizes it, so a chain of
// resumed runs drifts below a chain of warm runs, although patched
// units only get finer. One run in every resumeCycle of a chain
// therefore refines from singletons: the run after resumeCycle−1
// resumed ones is LeidenDynamicHierarchy. So is the run after one from
// singletons that raised the objective by resumeGain or more over its
// warm start: the partition is still climbing, as it does for a few
// runs after a poor cold start, and resumed runs would not climb with
// it. And so is a run whose prevH is nil, has Depth() < 2, or has
// prevH.Levels[0].Vertices != len(prev). From a cold dendrogram a
// chain goes resumed, resumed, full, then full while full runs gain
// resumeGain or more, and resumed, resumed, full once they gain less.
func LeidenDynamicFrom(g *graph.CSR, prev []uint32, prevH *Hierarchy, delta Delta, mode DynamicMode, opt Options) (*Result, *Hierarchy) {
	return runLeidenDynamic(g, prev, prevH, delta, mode, opt, true)
}

// resumeCycle is the length of LeidenDynamicFrom's cycle: one run
// refines pass 0 from singletons and the resumeCycle−1 runs after it
// resume, each from the last one's dendrogram. resumeGain is the gain
// over its warm start (its passes' summed DeltaQ) from which a run
// from singletons is followed by another; it equals the bound
// oracle.TestResumeChain holds a resumed chain to. The cycle alone let
// a chain from a cold social partition fall 0.0115 behind the
// LeidenDynamicHierarchy chain after 8 batches at 2×10⁴ vertices; with
// the gain rule the worst gap over four graph classes and four seeds
// was 0.0017 there and 0.0034 over batches 8 to 60 (DESIGN.md §2i).
const (
	resumeCycle = 3
	resumeGain  = 0.005
)

func runLeidenDynamic(g *graph.CSR, prev []uint32, prevH *Hierarchy, delta Delta, mode DynamicMode, opt Options, hierarchy bool) (*Result, *Hierarchy) {
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
	if prevH != nil && prevH.resumed < resumeCycle-1 && prevH.gain < resumeGain && prevH.Depth() >= 2 && prevH.Levels[0].Vertices == len(prev) {
		ws.resume = prevH
		ws.hierarchy.resumed = prevH.resumed + 1
	}

	res := ws.leiden(g)
	if h := ws.hierarchy; h != nil && h.resumed == 0 {
		for _, p := range res.Stats.Passes {
			h.gain += p.DeltaQ
		}
	}
	return res, ws.hierarchy
}

// inheritUnits is pass 0's refinement in a resumed run: it leaves in
// ws.comm the refined partition inherited from the previous dendrogram
// h and returns the number of vertices that do not anchor their
// sub-community, refinePhase's move count for the same partition. The
// units are connected sets of old vertices: a full dendrogram's
// last-level super-vertices, h.Flatten(h.Depth()−1), or a resumed
// dendrogram's Levels[0], the units its run inherited after its movers
// and new vertices left them and the rest was split into connected
// components. Each of those lies inside one of that run's final
// communities, so units only get finer from one resumed run to the
// next.
//
// A vertex keeps its unit when it is an old vertex, did not move in
// this pass's move phase (bounds equals its warm label), and carries
// the warm label of its unit's smallest member; the kept members of a
// unit therefore share one community bound. Every other vertex is a
// singleton: movers, new vertices, and members a final refinement left
// outside their unit's community. The kept members of each unit are
// then split into their connected components in g
// (quality.ComponentsOn), since a deletion, or an insertion whose
// negative weight cancels an edge, can cut a unit; each component is
// named by its smallest member. So the result holds refinePhase's
// invariants: every sub-community lies inside one bound, is connected
// in g, and is named after a vertex it holds (comm[c] == c, which
// renumberRefined relies on). It is a pure function of h, the warm
// labels, bounds and g, so deterministic mode stays thread-count
// invariant.
//
// The units are composed on the pool into comm and indexed by members.
// One region over the units then takes the vertices that do not keep
// their unit out of comm and names them after themselves in the
// result, which overwrites the warm labels each unit's task has read;
// the split names the rest. Σ' is left as the move phase had it: the
// next pass recomputes it from its own labels.
func (ws *workspace) inheritUnits(g *graph.CSR, h *Hierarchy) int64 {
	const none = ^uint32(0)
	pool, threads, grain := ws.opt.Pool, ws.opt.Threads, ws.opt.Grain
	n := g.NumVertices()
	old := min(h.Levels[0].Vertices, n)
	last := h.Depth() - 1
	if h.Inherited() {
		last = 1 // compose Levels[0] alone
	}
	comm := ws.comm[:n]
	bounds := ws.bounds[:n]
	out := ws.initC[:n] // pass 0's warm labels until the marking region below overwrites them
	levels := h.Levels[:last]
	pool.For(n, threads, grain, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			if v >= old {
				comm[v], out[v] = none, uint32(v)
				continue
			}
			u := levels[0].Membership[v]
			for _, l := range levels[1:] {
				u = l.Membership[u]
			}
			comm[v] = u
		}
	})
	units := h.Levels[last].Vertices
	// Reserved for all n vertices: the same allocation serves this index
	// and the aggregation's after it.
	ws.commVtx = reserve(ws.commVtx, n)
	off, vtx := ws.members(comm[:old], units)
	ws.zeroMoved()
	pool.For(units, threads, 1, func(lo, hi, tid int) {
		var moved int64
		for c := lo; c < hi; c++ {
			seg := vtx[off[c]:off[c+1]]
			if len(seg) == 0 {
				continue
			}
			w := out[slices.Min(seg)]
			kept := int64(0)
			for _, v := range seg {
				if bounds[v] == out[v] && out[v] == w {
					kept++
				} else {
					comm[v], out[v] = none, v
				}
			}
			moved += max(kept-1, 0)
		}
		ws.moved[tid].V += moved
	})
	extra, _ := quality.ComponentsOn(pool, threads, g, comm, off, vtx, ws.marks(n), ws.scratch[:old], out)
	moves := ws.sumMoved() - extra
	ws.comm, ws.initC = ws.initC, ws.comm
	return moves
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
// might now split). New vertices are always marked. The frontier seeds
// the pruning flags and the flag-seeding order is observable in
// deterministic mode, so it comes back sorted and free of duplicates.
func frontierOf(warm []uint32, delta Delta, firstNew, n int) []uint32 {
	out := make([]uint32, 0, 2*(len(delta.Insertions)+len(delta.Deletions))+n-firstNew)
	in := func(v uint32) bool { return int(v) < n }
	for _, e := range delta.Insertions {
		if in(e.U) && in(e.V) && warm[e.U] != warm[e.V] {
			out = append(out, e.U, e.V)
		}
	}
	for _, e := range delta.Deletions {
		if in(e.U) && in(e.V) && warm[e.U] == warm[e.V] {
			out = append(out, e.U, e.V)
		}
	}
	// New vertices always start unprocessed: they are singletons that
	// have never chosen a community.
	for v := firstNew; v < n; v++ {
		out = append(out, uint32(v))
	}
	slices.Sort(out)
	return slices.Compact(out)
}
