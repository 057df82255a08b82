package serve

import (
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
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
	// members[c] lists community c's vertices in ascending order — the
	// /members index, built once at publication instead of scanning the
	// membership per query.
	members [][]uint32
}

// newSnapshot derives the query index; edges is g's undirected edge
// count. Building the members index is a counting sort over the
// membership: sizes, offsets, then one fill pass in vertex order, which
// leaves every list sorted. /hierarchy needs no index: it composes the
// dendrogram levels for its one vertex, O(depth) per query.
func newSnapshot(g *graph.CSR, edges int64, res *core.Result, h *core.Hierarchy, version uint64, warm bool) *Snapshot {
	s := &Snapshot{
		Graph:     g,
		Result:    res,
		Hierarchy: h,
		Version:   version,
		BuiltAt:   time.Now(),
		Warm:      warm,
		edges:     edges,
	}
	s.members = make([][]uint32, res.NumCommunities)
	sizes := make([]int, res.NumCommunities)
	for _, c := range res.Membership {
		sizes[c]++
	}
	for c, n := range sizes {
		s.members[c] = make([]uint32, 0, n)
	}
	for v, c := range res.Membership {
		s.members[c] = append(s.members[c], uint32(v))
	}
	return s
}

// Community returns the community of vertex v and whether v is in
// range.
func (s *Snapshot) Community(v uint32) (uint32, bool) {
	if int(v) >= len(s.Result.Membership) {
		return 0, false
	}
	return s.Result.Membership[v], true
}

// Members returns community c's sorted member list (aliasing the
// snapshot's index — callers must not mutate it) and whether c exists.
func (s *Snapshot) Members(c uint32) ([]uint32, bool) {
	if int(c) >= len(s.members) {
		return nil, false
	}
	return s.members[c], true
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
