package serve

import "time"

// Wire types of the query API. Every response carries the snapshot
// Version it was answered from, so a client interleaving requests
// across a recompute can tell which answers belong together.

// EdgeUpdate is one edge of a delta batch. For insertions a zero (or
// omitted) weight means 1; deletion weights are ignored.
type EdgeUpdate struct {
	U uint32  `json:"u"`
	V uint32  `json:"v"`
	W float32 `json:"w,omitempty"`
}

// DeltaRequest is the body of POST /delta: deletions apply first, then
// insertions, under the unified delta semantics (graph.EvaluateDelta).
// An invalid batch — a deletion naming a missing or already-deleted
// edge, a non-finite weight — rejects the whole request and mutates
// nothing.
type DeltaRequest struct {
	Insertions []EdgeUpdate `json:"insertions,omitempty"`
	Deletions  []EdgeUpdate `json:"deletions,omitempty"`
}

// DeltaResponse acknowledges an accepted batch. Version is the
// currently *published* snapshot — the batch lands in a later one.
type DeltaResponse struct {
	Accepted   bool   `json:"accepted"`
	Insertions int    `json:"insertions"`
	Deletions  int    `json:"deletions"`
	Version    uint64 `json:"version"`
}

// CommunityResponse answers GET /community?v=: the community of one
// vertex and that community's size.
type CommunityResponse struct {
	Version   uint64 `json:"version"`
	Vertex    uint32 `json:"vertex"`
	Community uint32 `json:"community"`
	Size      int    `json:"size"`
}

// MembersResponse answers GET /members?c=: the sorted member list of
// one community. When a limit truncated the list, Size still reports
// the full community size.
type MembersResponse struct {
	Version   uint64   `json:"version"`
	Community uint32   `json:"community"`
	Size      int      `json:"size"`
	Members   []uint32 `json:"members"`
}

// Neighbor is one intra-community neighbour with its edge weight.
type Neighbor struct {
	V uint32  `json:"v"`
	W float32 `json:"w"`
}

// NeighborsResponse answers GET /neighbors?v=: the neighbours of a
// vertex that share its community.
type NeighborsResponse struct {
	Version   uint64     `json:"version"`
	Vertex    uint32     `json:"vertex"`
	Community uint32     `json:"community"`
	Degree    int        `json:"degree"` // full degree, all communities
	Neighbors []Neighbor `json:"neighbors"`
}

// HierarchyResponse answers GET /hierarchy?v=: the community of a
// vertex at every dendrogram depth, coarse to fine drill-down. Levels
// has Depth entries (Levels[d-1] is the community at Flatten depth d);
// Final is the published membership after any final refinement.
type HierarchyResponse struct {
	Version uint64   `json:"version"`
	Vertex  uint32   `json:"vertex"`
	Depth   int      `json:"depth"`
	Levels  []uint32 `json:"levels"`
	Final   uint32   `json:"final"`
}

// StatsResponse answers GET /stats: the published snapshot's shape and
// quality plus the serving counters.
type StatsResponse struct {
	Version     uint64    `json:"version"`
	BuiltAt     time.Time `json:"built_at"`
	Warm        bool      `json:"warm"` // warm-started from the previous snapshot
	Vertices    int       `json:"vertices"`
	Edges       int64     `json:"edges"` // undirected edges of the snapshot graph
	Communities int       `json:"communities"`
	Modularity  float64   `json:"modularity"`
	Quality     float64   `json:"quality"`
	Passes      int       `json:"passes"`
	Depth       int       `json:"depth"` // dendrogram depth

	Recomputes    int64  `json:"recomputes"` // published snapshot swaps (incl. the initial build)
	Rejections    int64  `json:"rejections"` // candidates not published: gate failures and recovered panics
	LastRejection string `json:"last_rejection,omitempty"`

	PendingInsertions int `json:"pending_insertions"` // ingested, not yet in a published snapshot (a running recompute's batch included)
	PendingDeletions  int `json:"pending_deletions"`
}

// RecomputeResponse acknowledges POST /recompute, which queues a warm
// recompute over whatever delta is pending, possibly none.
type RecomputeResponse struct {
	Queued  bool   `json:"queued"`
	Version uint64 `json:"version"`
}

type errorResponse struct {
	Error string `json:"error"`
}
