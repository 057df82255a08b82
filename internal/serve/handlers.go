package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/observe"
)

// Handler returns the server's mux: the query/ingest endpoints plus
// the full observability surface of internal/observe (/metrics,
// /metrics.json, /healthz, /debug/flight, /debug/vars, /debug/pprof)
// mounted beside them, so one listener serves both planes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /community", s.instrument("community", s.handleCommunity))
	mux.HandleFunc("GET /members", s.instrument("members", s.handleMembers))
	mux.HandleFunc("GET /neighbors", s.instrument("neighbors", s.handleNeighbors))
	mux.HandleFunc("GET /hierarchy", s.instrument("hierarchy", s.handleHierarchy))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("POST /delta", s.instrument("delta", s.handleDelta))
	mux.HandleFunc("POST /recompute", s.instrument("recompute", s.handleRecompute))
	observe.Routes(mux, s.gatherMetrics, s.tel.Flight())
	return mux
}

// instrument wraps a handler with its per-endpoint latency histogram
// and request counter. The histogram is the lock-free sharded one, so
// instrumentation adds no contention to the read path.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hist, ctr := s.lat[name], s.reqs[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.ObserveDuration(time.Since(start))
		ctr.Add(1)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, a ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, a...)})
}

// vertexParam parses the ?v= vertex id, bounds-checked against the
// snapshot.
func vertexParam(w http.ResponseWriter, r *http.Request, snap *Snapshot) (uint32, bool) {
	raw := r.URL.Query().Get("v")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing required parameter v")
		return 0, false
	}
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid vertex id %q", raw)
		return 0, false
	}
	if int(id) >= snap.Graph.NumVertices() {
		writeError(w, http.StatusNotFound, "vertex %d out of range [0,%d)", id, snap.Graph.NumVertices())
		return 0, false
	}
	return uint32(id), true
}

func (s *Server) handleCommunity(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	v, ok := vertexParam(w, r, snap)
	if !ok {
		return
	}
	c, _ := snap.Community(v)
	members, _ := snap.Members(c)
	writeJSON(w, http.StatusOK, CommunityResponse{
		Version:   snap.Version,
		Vertex:    v,
		Community: c,
		Size:      len(members),
	})
}

func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	raw := r.URL.Query().Get("c")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing required parameter c")
		return
	}
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid community id %q", raw)
		return
	}
	members, ok := snap.Members(uint32(id))
	if !ok {
		writeError(w, http.StatusNotFound, "community %d out of range [0,%d)", id, snap.Result.NumCommunities)
		return
	}
	out := members
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err := strconv.Atoi(raw)
		if err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", raw)
			return
		}
		if limit < len(out) {
			out = out[:limit]
		}
	}
	writeJSON(w, http.StatusOK, MembersResponse{
		Version:   snap.Version,
		Community: uint32(id),
		Size:      len(members),
		Members:   out,
	})
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	v, ok := vertexParam(w, r, snap)
	if !ok {
		return
	}
	c, _ := snap.Community(v)
	es, ws := snap.Graph.Neighbors(v)
	resp := NeighborsResponse{
		Version:   snap.Version,
		Vertex:    v,
		Community: c,
		Degree:    len(es),
		Neighbors: make([]Neighbor, 0, len(es)),
	}
	for i, e := range es {
		if nc, ok := snap.Community(e); ok && nc == c {
			resp.Neighbors = append(resp.Neighbors, Neighbor{V: e, W: ws[i]})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHierarchy(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	v, ok := vertexParam(w, r, snap)
	if !ok {
		return
	}
	levels := snap.Ancestry(v)
	final, _ := snap.Community(v)
	writeJSON(w, http.StatusOK, HierarchyResponse{
		Version: snap.Version,
		Vertex:  v,
		Depth:   len(levels),
		Levels:  levels,
		Final:   final,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

func (s *Server) stats() StatsResponse {
	// A publish stores the snapshot and clears the taken delta under
	// s.mu, so both read here describe the same moment.
	s.mu.Lock()
	snap := s.snap.Load()
	pIns, pDel, _ := s.pending()
	s.mu.Unlock()
	s.rejMu.Lock()
	lastRej := s.lastRej
	s.rejMu.Unlock()
	return StatsResponse{
		Version:           snap.Version,
		BuiltAt:           snap.BuiltAt,
		Warm:              snap.Warm,
		Vertices:          snap.Graph.NumVertices(),
		Edges:             snap.edges,
		Communities:       snap.Result.NumCommunities,
		Modularity:        snap.Result.Modularity,
		Quality:           snap.Result.Quality,
		Passes:            snap.Result.Passes,
		Depth:             snap.Depth(),
		Recomputes:        s.recomputes.Load(),
		Rejections:        s.rejections.Load(),
		LastRejection:     lastRej,
		PendingInsertions: pIns,
		PendingDeletions:  pDel,
	}
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	var req DeltaRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.deltaBad.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBody)
			return
		}
		s.deltaBad.Add(1)
		writeError(w, http.StatusBadRequest, "invalid delta request: %v", err)
		return
	}
	if n := len(req.Insertions) + len(req.Deletions); n > s.cfg.MaxBatch {
		s.deltaBad.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d edges exceeds limit %d", n, s.cfg.MaxBatch)
		return
	}
	ins := make([]graph.Edge, len(req.Insertions))
	for i, e := range req.Insertions {
		w := e.W
		if w == 0 {
			w = 1 // omitted weight: unit edge
		}
		ins[i] = graph.Edge{U: e.U, V: e.V, W: w}
	}
	del := make([]graph.Edge, len(req.Deletions))
	for i, e := range req.Deletions {
		del[i] = graph.Edge{U: e.U, V: e.V}
	}
	if err := s.Ingest(ins, del); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, DeltaResponse{
		Accepted:   true,
		Insertions: len(ins),
		Deletions:  len(del),
		Version:    s.snap.Load().Version,
	})
}

func (s *Server) handleRecompute(w http.ResponseWriter, r *http.Request) {
	s.Kick()
	writeJSON(w, http.StatusAccepted, RecomputeResponse{
		Queued:  true,
		Version: s.snap.Load().Version,
	})
}

// gatherMetrics assembles the /metrics scrape: snapshot shape and
// quality, serving counters, per-endpoint request counts and latency
// histograms, pool scheduler counters, and the continuous telemetry
// (phase histograms, flight-recorder-backed lifetime counters).
func (s *Server) gatherMetrics() *observe.MetricSet {
	ms := observe.NewMetricSet()
	s.mu.Lock()
	snap := s.snap.Load()
	pIns, pDel, oldest := s.pending()
	s.mu.Unlock()
	ms.Gauge("gveserve_snapshot_version", "Version of the published snapshot.", float64(snap.Version))
	ms.Gauge("gveserve_snapshot_vertices", "Vertices in the published snapshot.", float64(snap.Graph.NumVertices()))
	ms.Gauge("gveserve_snapshot_edges", "Undirected edges in the published snapshot.", float64(snap.edges))
	ms.Gauge("gveserve_snapshot_communities", "Communities in the published snapshot.", float64(snap.Result.NumCommunities))
	ms.Gauge("gveserve_snapshot_modularity", "Modularity of the published snapshot.", snap.Result.Modularity)
	ms.Gauge("gveserve_snapshot_age_seconds", "Seconds since the published snapshot was built.", time.Since(snap.BuiltAt).Seconds())
	ms.Counter("gveserve_recomputes_total", "Published snapshot swaps, including the initial build.", float64(s.recomputes.Load()))
	ms.Counter("gveserve_recompute_rejections_total", "Candidate partitions rejected by the oracle gate or by a recovered panic.", float64(s.rejections.Load()))
	ms.Counter("gveserve_delta_batches_total", "Ingested delta batches by outcome.",
		float64(s.deltaOK.Load()), observe.L("status", "accepted"))
	ms.Counter("gveserve_delta_batches_total", "Ingested delta batches by outcome.",
		float64(s.deltaBad.Load()), observe.L("status", "rejected"))
	age := 0.0
	if !oldest.IsZero() {
		age = time.Since(oldest).Seconds()
	}
	ms.Gauge("gveserve_pending_insertions", "Ingested insertions not yet in a published snapshot.", float64(pIns))
	ms.Gauge("gveserve_pending_deletions", "Ingested deletions not yet in a published snapshot.", float64(pDel))
	ms.Gauge("gveserve_pending_age_seconds", "Seconds since the oldest ingested batch that no published snapshot holds yet (0 when there is none).", age)
	for _, e := range endpoints {
		ms.Counter("gveserve_requests_total", "Requests served by endpoint.",
			float64(s.reqs[e].Load()), observe.L("endpoint", e))
	}
	for _, e := range endpoints {
		ms.Histogram("gveserve_request_seconds", "Request latency by endpoint.",
			s.lat[e].Snapshot(), observe.L("endpoint", e))
	}
	ms.Histogram("gveserve_recompute_seconds", "Wall time of detection runs (initial and recomputes).",
		s.lat["recompute_run"].Snapshot())
	for k, kind := range swapKinds {
		for i, name := range stageNames {
			ms.Histogram("gveserve_swap_stage_seconds", "Wall time of each stage of a published swap by kind of run (initial build included, as full).",
				s.stages[k][i].Snapshot(), observe.L("stage", name), observe.L("kind", kind))
		}
	}
	core.AddPoolMetrics(ms, s.pool.Counters())
	s.tel.AddTo(ms)
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(ms)
	}
	return ms
}
