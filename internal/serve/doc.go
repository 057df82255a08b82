// Package serve is the resident community-detection service: it loads
// (or is handed) a graph once, runs GVE-Leiden, and answers structural
// queries — the community of a vertex, a community's members, a
// vertex's intra-community neighbours, hierarchy drill-down, partition
// statistics — from an immutable snapshot behind an atomic pointer, so
// the read path is lock-free and unaffected by recomputation.
//
// Mutations arrive as delta batches (POST /delta) under the unified
// delta semantics of graph.EvaluateDelta; they accumulate in a mutable
// stream.Graph and a bounded background worker folds them into the next
// snapshot with a warm-started dynamic Leiden run resumed from the
// published snapshot's dendrogram (core.LeidenDynamicFrom). Unless that
// dendrogram was itself resumed, pass 0 inherits its last level, and
// the snapshot's /hierarchy holds only the few levels the run built;
// otherwise the run refines from singletons and rebuilds the whole
// dendrogram. POST /recompute queues the same warm run on demand, over
// whatever delta is pending, possibly none. A
// swap's stages outside the run — the stream merge, the gate's checks
// and the members index — run on the server's pool, and the snapshot
// serves /members from the index the gate checked connectivity
// through. Every candidate partition must pass
// the internal/oracle invariant suite — CSR well-formedness, partition
// validity, no internally-disconnected communities — plus a
// differential quality bound against the previous snapshot before the
// pointer swap; a rejected candidate leaves the previous snapshot
// serving and is counted, logged, and visible in /metrics and /stats.
// A panic in the recompute is handled the same way: the worker recovers
// it, re-queues the delta and records "panic: …" in the flight record.
//
// This is the paper's stated deployment shape for the dynamic
// direction of §4.1: detection as a long-lived service over an evolving
// graph rather than a batch run, with the observability stack of the
// repo (internal/observe) mounted on the same mux.
//
// # File map
//
//   - serve.go: Server lifecycle — construction, the recompute worker,
//     the oracle gate, Close.
//   - snapshot.go: the immutable Snapshot and its members index.
//   - handlers.go: the HTTP query handlers; each does one atomic
//     snapshot load and answers from immutable state.
//   - api.go: the JSON wire types shared by server and client.
//   - client.go: Client, a typed HTTP client for a running instance.
//
// Startup cost is dominated by obtaining the graph; a .gvecsr
// container (internal/graph/gvecsr) memory-maps in milliseconds, so a
// server restart at multi-million-vertex scale pays only the initial
// detection run, not a parse. The mapping must outlive every snapshot
// built on it, and the stream graph, which adopts it as its base until
// the first swap — cmd/gveserve simply never closes the File.
package serve
