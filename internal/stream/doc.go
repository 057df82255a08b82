// Package stream provides the mutable graph behind the resident
// server: an immutable canonical base CSR plus an overlay of the
// pairs changed since the base was built, with a Snapshot that turns
// the two into the immutable CSR the detection algorithms consume. It
// is the substrate under the dynamic Leiden workflow
// (core.LeidenDynamic): batch mutations accumulate here; Snapshot + the
// batch go to the detector.
//
// The package keeps only the overlay. Normalizing the input
// (graph.Canonical), validating a batch (graph.EvaluateDelta) and
// merging the overlay into the next CSR (graph.MergeDelta) are the
// graph package's, and graph.ApplyDelta runs the same three steps, so
// FromCSR, Apply and Snapshot give the CSR, or the error, that
// graph.ApplyDelta gives for the same graph and batches.
//
// Apply validates the whole batch first, and a rejected batch leaves
// the graph bit-identical, which is what lets internal/serve treat an
// ingest failure as a clean no-op. A lookup checks the overlay, then
// binary-searches the base. Snapshot keeps its merge as the next base,
// so a snapshot and the graph share one CSR, which neither ever
// writes. FromCSR adopts a canonical input the same way, without
// copying.
//
// A Graph is not safe for concurrent mutation; callers serialize
// writers (internal/serve funnels all mutations through one ingest
// path) and share read-only snapshots instead.
package stream
