package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/observe"
	"gveleiden/internal/oracle"
	"gveleiden/internal/parallel"
	"gveleiden/internal/stream"
)

// Config configures a Server. The zero value is usable but strict;
// start from DefaultConfig.
type Config struct {
	// Options configures every detection run (cold and warm). The
	// Observer is chained with the server's own telemetry.
	Options core.Options
	// Mode selects the warm-start strategy for recomputes.
	Mode core.DynamicMode
	// MaxBatch caps insertions+deletions per delta request (<=0: 100k).
	MaxBatch int
	// MaxBody caps the request body in bytes (<=0: 8 MiB).
	MaxBody int64
	// MaxQualityDrop is the oracle gate's differential bound: a
	// candidate whose modularity is below the published snapshot's by
	// more than this is rejected. The graph changes between snapshots,
	// so some drop is legitimate; DefaultConfig allows 0.25. A negative
	// value rejects candidates that don't *improve* by |drop| — useful
	// to force rejections under test.
	MaxQualityDrop float64
	// RebuildInterval, when positive, triggers a periodic recompute even
	// without ingests — a freshness floor for warm-start drift.
	RebuildInterval time.Duration
	// FlightSize is the flight-recorder capacity (<=0: observe default).
	FlightSize int
	// Logger receives swap/rejection/ingest records; nil discards.
	Logger *slog.Logger
	// ExtraMetrics, when non-nil, is invoked on every /metrics scrape
	// after the server's own metrics — the hook cmd/gveserve uses to
	// append the runtime sampler.
	ExtraMetrics func(*observe.MetricSet)
}

// DefaultConfig returns the serving defaults: paper options, frontier
// warm starts, 100k-edge batches, 8 MiB bodies, 0.25 quality-drop
// budget.
func DefaultConfig() Config {
	return Config{
		Options:        core.DefaultOptions(),
		Mode:           core.DynamicFrontier,
		MaxBatch:       100_000,
		MaxBody:        8 << 20,
		MaxQualityDrop: 0.25,
	}
}

// Server is the resident service. Create with New, mount Handler on an
// http.Server, Close on shutdown.
type Server struct {
	cfg    Config
	logger *slog.Logger
	tel    *observe.Telemetry
	pool   *parallel.Pool

	// mu guards the mutable ingest state: the stream graph and the
	// delta accumulated since the last *published* snapshot. The
	// recompute worker consumes it; a rejected candidate puts its
	// consumed delta back so the next attempt still describes the
	// transition from the published snapshot.
	mu         sync.Mutex
	sg         *stream.Graph
	pendingIns []graph.Edge
	pendingDel []graph.Edge

	snap atomic.Pointer[Snapshot]

	// kick wakes the recompute worker; capacity 1 coalesces bursts, so
	// at most one recompute runs and at most one more is queued.
	kick   chan struct{}
	cancel context.CancelFunc
	done   chan struct{}

	recomputes atomic.Int64 // published swaps, including the initial build
	rejections atomic.Int64 // oracle-gate refusals
	deltaOK    atomic.Int64 // accepted delta batches
	deltaBad   atomic.Int64 // rejected delta batches

	rejMu   sync.Mutex
	lastRej string

	lat    map[string]*observe.Histogram
	reqs   map[string]*atomic.Int64
	stages [numStages]*observe.Histogram
}

// The timed stages of a published swap, in order: building the graph
// the run consumes (stream.Graph.Snapshot; for the initial build,
// stream.FromCSR normalizing the caller's graph first), the detection
// run, the oracle gate, and the query-index build (newSnapshot).
const (
	stageSnapshot = iota
	stageRun
	stageGate
	stageIndex
	numStages
)

var stageNames = [numStages]string{"snapshot", "run", "gate", "index"}

// endpoints are the instrumented handler names, fixed at construction
// so the latency/request maps are never mutated after New.
var endpoints = []string{
	"community", "members", "neighbors", "hierarchy", "stats",
	"delta", "recompute",
}

// New builds the initial snapshot synchronously — a cold
// LeidenHierarchy run, gated by the same invariant checks as every
// later swap (there is no previous snapshot, so no differential bound)
// — and starts the recompute worker. The initial snapshot serves the
// stream graph's snapshot, so it holds exactly the edges later deltas
// can delete: stream.FromCSR normalizes g (graph.Canonical), dropping
// pairs of weight ≤ 0 and summing parallel arcs. A canonical g is
// that snapshot itself, adopted without a copy; the server takes it
// over, so the caller must not modify it afterwards, and the server
// never does.
func New(g *graph.CSR, cfg Config) (*Server, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 100_000
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:    cfg,
		logger: logger,
		tel:    observe.NewTelemetry(cfg.FlightSize),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		lat:    make(map[string]*observe.Histogram, len(endpoints)+1),
		reqs:   make(map[string]*atomic.Int64, len(endpoints)),
	}
	s.pool = cfg.Options.Pool
	if s.pool == nil {
		s.pool = parallel.Default()
	}
	for _, e := range endpoints {
		s.lat[e] = observe.NewHistogram()
		s.reqs[e] = &atomic.Int64{}
	}
	s.lat["recompute_run"] = observe.NewHistogram()
	for i := range s.stages {
		s.stages[i] = observe.NewHistogram()
	}

	var took [numStages]time.Duration
	t := time.Now()
	s.sg = stream.FromCSR(g)
	g = s.sg.Snapshot()
	took[stageSnapshot] = time.Since(t)
	opt := s.runOptions()
	start := time.Now()
	res, h := core.LeidenHierarchy(g, opt)
	took[stageRun] = time.Since(start)
	t = time.Now()
	if err := s.gate(g, res, nil); err != nil {
		return nil, fmt.Errorf("serve: initial run failed the oracle gate: %w", err)
	}
	took[stageGate] = time.Since(t)
	t = time.Now()
	snap := newSnapshot(g, s.sg.NumEdges(), res, h, 1, false)
	took[stageIndex] = time.Since(t)
	s.snap.Store(snap)
	s.recomputes.Add(1)
	s.lat["recompute_run"].ObserveDuration(time.Since(start))
	s.observeStages(took)
	s.recordRun("serve-initial", res, g, start, "passed")
	s.logSwap(snap, time.Since(start))

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go s.worker(ctx)
	return s, nil
}

// runOptions returns the per-run Options: the configured ones with the
// server's telemetry chained onto any caller Observer.
func (s *Server) runOptions() core.Options {
	opt := s.cfg.Options
	opt.Observer = observe.Multi(opt.Observer, s.tel)
	return opt
}

// Snapshot returns the currently published snapshot. It is immutable;
// hold it as long as needed.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Telemetry returns the server's continuous telemetry aggregator.
func (s *Server) Telemetry() *observe.Telemetry { return s.tel }

// Rejections returns the number of candidates the oracle gate refused.
func (s *Server) Rejections() int64 { return s.rejections.Load() }

// Recomputes returns the number of published snapshots.
func (s *Server) Recomputes() int64 { return s.recomputes.Load() }

// Ingest applies one delta batch to the mutable graph under the
// unified delta semantics and schedules a recompute. A rejected batch
// is a no-op on the stream graph and returns the validation error.
func (s *Server) Ingest(insertions, deletions []graph.Edge) error {
	s.mu.Lock()
	err := s.sg.Apply(insertions, deletions)
	if err == nil {
		s.pendingIns = append(s.pendingIns, insertions...)
		s.pendingDel = append(s.pendingDel, deletions...)
	}
	s.mu.Unlock()
	if err != nil {
		s.deltaBad.Add(1)
		return err
	}
	s.deltaOK.Add(1)
	s.Kick()
	return nil
}

// Kick schedules a recompute; a no-op when one is already queued.
func (s *Server) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Close stops the recompute worker and waits for it to exit (a
// recompute in flight finishes first — the detection runs are not
// cancellable mid-pass). ctx bounds the wait; on expiry the worker is
// abandoned (it still exits after its current run, but Close no longer
// waits for it).
func (s *Server) Close(ctx context.Context) error {
	s.cancel()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown abandoned an in-flight recompute: %w", ctx.Err())
	}
}

// worker is the bounded recompute loop: one goroutine, woken by Kick
// (capacity-1 channel, so bursts coalesce) and optionally by the
// rebuild ticker, exiting on Close.
func (s *Server) worker(ctx context.Context) {
	defer close(s.done)
	var tickC <-chan time.Time
	if s.cfg.RebuildInterval > 0 {
		t := time.NewTicker(s.cfg.RebuildInterval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.kick:
		case <-tickC:
		}
		s.recompute()
	}
}

// recompute consumes the pending delta, runs warm-started dynamic
// Leiden on the current mutable graph, gates the candidate, and — only
// on a clean gate — publishes it. On rejection the consumed delta is
// prepended back so the next candidate still describes the transition
// from the (unchanged) published snapshot.
func (s *Server) recompute() {
	var took [numStages]time.Duration
	s.mu.Lock()
	t := time.Now()
	g := s.sg.Snapshot()
	took[stageSnapshot] = time.Since(t)
	edges := s.sg.NumEdges()
	ins, del := s.pendingIns, s.pendingDel
	s.pendingIns, s.pendingDel = nil, nil
	s.mu.Unlock()

	prev := s.snap.Load()
	opt := s.runOptions()
	start := time.Now()
	var (
		res  *core.Result
		h    *core.Hierarchy
		warm bool
	)
	if prev != nil {
		delta := core.Delta{Insertions: ins, Deletions: del}
		res, h = core.LeidenDynamicHierarchy(g, prev.Result.Membership, delta, s.cfg.Mode, opt)
		warm = true
	} else {
		res, h = core.LeidenHierarchy(g, opt)
	}
	elapsed := time.Since(start)
	took[stageRun] = elapsed
	s.lat["recompute_run"].ObserveDuration(elapsed)

	t = time.Now()
	err := s.gate(g, res, prev)
	took[stageGate] = time.Since(t)
	if err != nil {
		s.rejections.Add(1)
		s.rejMu.Lock()
		s.lastRej = err.Error()
		s.rejMu.Unlock()
		// Re-queue the consumed delta ahead of anything ingested while
		// the run was in flight.
		s.mu.Lock()
		s.pendingIns = append(ins, s.pendingIns...)
		s.pendingDel = append(del, s.pendingDel...)
		s.mu.Unlock()
		s.recordRun("serve-recompute", res, g, start, "failed: "+err.Error())
		s.logger.Warn("recompute rejected by oracle gate",
			slog.String("error", err.Error()),
			slog.Uint64("serving_version", prev.Version),
			slog.Duration("elapsed", elapsed))
		return
	}

	t = time.Now()
	next := newSnapshot(g, edges, res, h, prev.Version+1, warm)
	took[stageIndex] = time.Since(t)
	s.snap.Store(next)
	s.recomputes.Add(1)
	s.observeStages(took)
	s.recordRun("serve-recompute", res, g, start, "passed")
	s.logSwap(next, elapsed)
}

// gate runs the invariant suite on a candidate: CSR well-formedness,
// partition validity with dense labels, no internally-disconnected
// communities, and (when prev is non-nil) the differential quality
// bound. Any violation blocks publication.
func (s *Server) gate(g *graph.CSR, res *core.Result, prev *Snapshot) error {
	r := &oracle.Report{}
	oracle.CheckCSR(r, g)
	oracle.CheckPartition(r, g, res.Membership, true)
	oracle.CheckConnected(r, g, res.Membership, s.cfg.Options.Threads)
	if prev != nil {
		r.Checks++
		bound := prev.Result.Modularity - s.cfg.MaxQualityDrop
		if res.Modularity < bound {
			r.Violations = append(r.Violations, oracle.Violation{
				Invariant: "differential-quality",
				Detail: fmt.Sprintf("candidate modularity %.6f below bound %.6f (previous %.6f, allowed drop %g)",
					res.Modularity, bound, prev.Result.Modularity, s.cfg.MaxQualityDrop),
			})
		}
	}
	return r.Err()
}

// observeStages records the stage times of one published swap, so
// every stage histogram counts exactly the published swaps.
func (s *Server) observeStages(took [numStages]time.Duration) {
	for i, d := range took {
		s.stages[i].ObserveDuration(d)
	}
}

func (s *Server) recordRun(algo string, res *core.Result, g *graph.CSR, start time.Time, check string) {
	var dq float64
	for _, ps := range res.Stats.Passes {
		dq += ps.DeltaQ
	}
	rec := s.tel.RecordRun(observe.RunRecord{
		Algorithm:   algo,
		Start:       start,
		WallSeconds: time.Since(start).Seconds(),
		Vertices:    g.NumVertices(),
		Arcs:        g.NumArcs(),
		Threads:     s.cfg.Options.Threads,
		Passes:      res.Passes,
		Iterations:  res.Stats.TotalIterations(),
		Moves:       res.Stats.TotalMoves(),
		DeltaQ:      dq,
		Communities: res.NumCommunities,
		Modularity:  res.Modularity,
		Quality:     res.Quality,
		Phases:      res.Stats.PhaseSeconds(),
		Check:       check,
	})
	observe.LogRun(s.logger, rec)
}

func (s *Server) logSwap(snap *Snapshot, elapsed time.Duration) {
	s.logger.Info("snapshot published",
		slog.Uint64("version", snap.Version),
		slog.Bool("warm", snap.Warm),
		slog.Int("vertices", snap.Graph.NumVertices()),
		slog.Int64("edges", snap.edges),
		slog.Int("communities", snap.Result.NumCommunities),
		slog.Float64("modularity", snap.Result.Modularity),
		slog.Duration("elapsed", elapsed))
}
