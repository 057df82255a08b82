// Package stream provides a mutable graph for evolving-network
// workloads: an immutable canonical base CSR plus an overlay of the
// pairs changed since the base was built, with an efficient Snapshot
// that merges the two into the immutable CSR the detection algorithms
// consume. It is the substrate under the dynamic Leiden workflow
// (core.LeidenDynamic): batch mutations accumulate here; Snapshot + the
// batch go to the detector.
//
// Apply consumes a graph.Delta under the same whole-batch semantics as
// graph.EvaluateDelta: the batch is validated first and a rejected
// batch leaves the graph bit-identical, which is what lets
// internal/serve treat an ingest failure as a clean no-op.
//
// A lookup checks the overlay, then binary-searches the base. Snapshot
// merges the base with the sorted overlay in one linear pass and keeps
// the result as the next base, so a snapshot and the graph share one
// CSR, which neither ever writes. FromCSR adopts a canonical input the
// same way, without copying.
//
// A Graph is not safe for concurrent mutation; callers serialize
// writers (internal/serve funnels all mutations through one ingest
// path) and share read-only snapshots instead.
package stream
