package core

import (
	"fmt"

	"gveleiden/internal/graph"
)

// Level is one layer of the community dendrogram: the membership of
// each vertex of the *previous* level's graph (level 0 maps input
// vertices) in the refined communities that became the next level's
// super-vertices.
type Level struct {
	// Membership[i] is the community of vertex i at this level; labels
	// are dense in [0, Communities).
	Membership []uint32
	// Communities is the number of communities at this level.
	Communities int
	// Vertices is the number of vertices of the graph this level
	// partitioned (== len(Membership)).
	Vertices int
}

// Hierarchy is the full dendrogram of a run: Levels[0] partitions the
// input graph's vertices; Levels[l] partitions the super-vertices of
// level l-1. Flatten composes a prefix of levels back onto the input
// vertices. It records the levels the run built: a run resumed from a
// previous dendrogram (LeidenDynamicFrom) starts from units inherited
// from it, so its Levels[0] groups the input vertices into those
// units, and it holds only the few passes the resumed run made. The
// units a run resumed from h inherits are a full dendrogram's
// last-level super-vertices, Flatten(Depth()−1), or a resumed one's
// Levels[0].
type Hierarchy struct {
	Levels []Level
	// resumed counts the resumed runs since the last run that refined
	// pass 0 from singletons: 0 for that run's dendrogram (and for a
	// cold one), k for the k-th resumed run after it, whose Levels[0]
	// holds inherited units rather than sub-communities refined from
	// singletons. gain is what a warm run from singletons raised the
	// objective by over its warm start, its passes' summed DeltaQ, and
	// 0 for a cold or resumed run's dendrogram. LeidenDynamicFrom
	// resumes from h only while the count is below resumeCycle−1 and
	// gain below resumeGain.
	resumed int
	gain    float64
}

// Inherited reports whether h is a resumed run's dendrogram, whose
// Levels[0] holds the units the run inherited.
func (h *Hierarchy) Inherited() bool { return h.resumed > 0 }

// Depth returns the number of levels.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// Flatten returns the membership of every input vertex after composing
// levels 0..depth-1. depth == Depth() reproduces the final (pre-label-
// densification) partition; smaller depths give coarser snapshots of
// the agglomeration.
func (h *Hierarchy) Flatten(depth int) ([]uint32, error) {
	if depth < 1 || depth > len(h.Levels) {
		return nil, fmt.Errorf("core: depth %d out of range [1,%d]", depth, len(h.Levels))
	}
	out := append([]uint32(nil), h.Levels[0].Membership...)
	for l := 1; l < depth; l++ {
		lvl := h.Levels[l].Membership
		for v := range out {
			out[v] = lvl[out[v]]
		}
	}
	return out, nil
}

// LeidenHierarchy runs GVE-Leiden and additionally records the full
// dendrogram: one Level per pass with the renumbered refined
// communities that became the next level's super-vertices. The final
// Result is identical to Leiden's (it used to silently ignore
// Options.FinalRefine; it honours it now). Note that with FinalRefine
// set, Flatten(Depth()) reproduces the partition *before* the final
// refinement sweeps — individual vertex moves cannot be expressed as a
// dendrogram level over super-vertices.
func LeidenHierarchy(g *graph.CSR, opt Options) (*Result, *Hierarchy) {
	ws := newWorkspace(g, opt.normalize())
	ws.hierarchy = &Hierarchy{}
	return ws.leiden(g), ws.hierarchy
}

// recordLevel appends one dendrogram level when hierarchy tracking is
// on. Labels recorded mid-run (the renumbered refined communities, dense
// in [0, k)) are kept verbatim — the next level indexes super-vertices
// by exactly those ids. Final-break labels (community bounds, pending
// move labels) are arbitrary: the caller passes k < 0, and they are
// densified in first-appearance order.
func (ws *workspace) recordLevel(labels []uint32, k int) {
	if ws.hierarchy == nil {
		return
	}
	memb := make([]uint32, len(labels))
	if k >= 0 {
		copy(memb, labels)
	} else {
		dense := make(map[uint32]uint32, 256)
		for i, c := range labels {
			d, ok := dense[c]
			if !ok {
				d = uint32(len(dense))
				dense[c] = d
			}
			memb[i] = d
		}
		k = len(dense)
	}
	ws.hierarchy.Levels = append(ws.hierarchy.Levels, Level{
		Membership:  memb,
		Communities: k,
		Vertices:    len(labels),
	})
}
