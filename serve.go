package gveleiden

import (
	"gveleiden/internal/serve"
)

// Serving. The internal/serve package turns detection into a resident
// service: one graph loaded, queries answered from an immutable
// snapshot behind an atomic pointer, delta ingests folded into fresh
// snapshots by a background warm-started dynamic Leiden run, each
// candidate gated by the correctness oracle before the swap. The
// cmd/gveserve binary is the standalone server; the types below let a
// Go program embed the same machinery or speak to a running instance.

// ServeConfig configures an embedded community-detection server.
type ServeConfig = serve.Config

// ServeSnapshot is one immutable published state: graph, partition,
// dendrogram, and the derived query indexes.
type ServeSnapshot = serve.Snapshot

// Server is the resident community-detection service. Mount Handler on
// an http.Server; Ingest/Kick drive recomputes programmatically; Close
// stops the background worker.
type Server = serve.Server

// ServeClient is a typed HTTP client for a gveserve instance.
type ServeClient = serve.Client

// ServeEdgeUpdate is one edge of a delta batch on the wire.
type ServeEdgeUpdate = serve.EdgeUpdate

// ServeStats is the /stats response: snapshot shape, quality, and
// serving counters.
type ServeStats = serve.StatsResponse

// DefaultServeConfig returns the serving defaults: paper options,
// frontier warm starts, 100k-edge batches, 8 MiB bodies, 0.25
// modularity-drop budget on the oracle gate.
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// NewServer builds the initial snapshot synchronously (a cold
// hierarchy run, oracle-gated) and starts the recompute worker. The
// server takes g over and never writes it; the caller must not modify
// it afterwards.
func NewServer(g *Graph, cfg ServeConfig) (*Server, error) { return serve.New(g, cfg) }

// NewServeClient returns a client for the gveserve instance at base,
// e.g. "http://127.0.0.1:8080".
func NewServeClient(base string) *ServeClient { return serve.NewClient(base) }
