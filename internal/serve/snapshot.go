package serve

import (
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// Snapshot is one immutable published state of the server: a graph, a
// partition, its dendrogram, and the query indexes derived from them.
// Handlers load the current snapshot once per request through an atomic
// pointer and answer entirely from it, so a query never observes a
// half-swapped state and never takes a lock; recomputes build the next
// snapshot off to the side and publish it with one pointer store.
type Snapshot struct {
	Graph     *graph.CSR
	Result    *core.Result
	Hierarchy *core.Hierarchy

	// Version counts published snapshots, starting at 1 for the initial
	// build. BuiltAt is the publication time; Warm records whether the
	// run was warm-started from the previous snapshot's membership.
	Version uint64
	BuiltAt time.Time
	Warm    bool

	// edges is Graph's undirected edge count, recorded at publication
	// so that no reader rescans every arc.
	edges int64
	// members lists each community's vertices in ascending order — the
	// /members index, the one the gate checked connectivity through.
	members quality.Members
}

// newSnapshot assembles a snapshot; edges is g's undirected edge count
// and members the index of res.Membership that the gate built
// (quality.IndexMembers). /hierarchy needs no index: it composes the
// dendrogram levels for its one vertex, O(depth) per query.
func newSnapshot(g *graph.CSR, edges int64, res *core.Result, h *core.Hierarchy, members quality.Members, version uint64, warm bool) *Snapshot {
	return &Snapshot{
		Graph:     g,
		Result:    res,
		Hierarchy: h,
		Version:   version,
		BuiltAt:   time.Now(),
		Warm:      warm,
		edges:     edges,
		members:   members,
	}
}

// Community returns the community of vertex v and whether v is in
// range.
func (s *Snapshot) Community(v uint32) (uint32, bool) {
	if int(v) >= len(s.Result.Membership) {
		return 0, false
	}
	return s.Result.Membership[v], true
}

// Members returns community c's sorted member list and whether c
// exists. The list aliases the snapshot's index, so callers must not
// write it; it is capacity-capped, so an append reallocates.
func (s *Snapshot) Members(c uint32) ([]uint32, bool) {
	if int(c) >= s.members.Len() {
		return nil, false
	}
	return s.members.Of(c), true
}

// Depth returns the dendrogram depth (0 when no hierarchy was
// recorded).
func (s *Snapshot) Depth() int {
	if s.Hierarchy == nil {
		return 0
	}
	return s.Hierarchy.Depth()
}

// Ancestry returns the community of vertex v at every dendrogram depth:
// element d-1 is v's community after composing the first d levels, as
// in Hierarchy.Flatten(d). It walks the levels once, O(Depth). v must
// be a vertex of the snapshot's graph.
func (s *Snapshot) Ancestry(v uint32) []uint32 {
	out := make([]uint32, s.Depth())
	c := v
	for d := range out {
		c = s.Hierarchy.Levels[d].Membership[c]
		out[d] = c
	}
	return out
}
