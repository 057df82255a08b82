package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/observe"
	"gveleiden/internal/oracle"
	"gveleiden/internal/parallel"
	"gveleiden/internal/quality"
	"gveleiden/internal/stream"
)

// Config configures a Server. The zero value is usable but strict;
// start from DefaultConfig. A warm recompute runs after each ingested
// delta and on demand (POST /recompute, Kick); nothing runs on a
// timer.
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
	// recompute worker takes the queued delta; a rejected candidate puts
	// it back so the next attempt still describes the transition from
	// the published snapshot. Until its snapshot is published, the taken
	// delta still counts as pending.
	mu         sync.Mutex
	sg         *stream.Graph
	pendingIns []graph.Edge
	pendingDel []graph.Edge
	queuedAt   time.Time // ingest time of the oldest queued batch; zero when none is queued
	taken      taken     // the delta the running recompute took

	snap atomic.Pointer[Snapshot]

	// kick wakes the recompute worker; capacity 1 coalesces bursts, so
	// at most one recompute runs and at most one more is queued.
	kick   chan struct{}
	cancel context.CancelFunc
	done   chan struct{}

	recomputes atomic.Int64 // published swaps, including the initial build
	rejections atomic.Int64 // refused candidates: gate failures and recovered panics
	deltaOK    atomic.Int64 // accepted delta batches
	deltaBad   atomic.Int64 // rejected delta batches

	rejMu   sync.Mutex
	lastRej string

	lat    map[string]*observe.Histogram
	reqs   map[string]*atomic.Int64
	stages [numStages]*observe.Histogram
}

// taken is the delta a recompute took from the queue, pending until
// its snapshot is published.
type taken struct {
	ins, del int
	at       time.Time // ingest time of its oldest batch; zero when it holds none
}

// pending returns the ingested insertions and deletions no published
// snapshot holds yet, and the ingest time of the oldest batch among
// them (zero when there is none). The caller holds s.mu.
func (s *Server) pending() (ins, del int, oldest time.Time) {
	oldest = s.taken.at
	if oldest.IsZero() {
		oldest = s.queuedAt
	}
	return len(s.pendingIns) + s.taken.ins, len(s.pendingDel) + s.taken.del, oldest
}

// The timed stages of a published swap, in order: building the graph
// the run consumes (stream.Graph.SnapshotOn; for the initial build,
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

// attempt is what one swap got through, for its flight record.
type attempt struct {
	res   *core.Result             // the run's result; nil when the run panicked
	h     *core.Hierarchy          // the run's dendrogram; nil when the run panicked
	check string                   // the gate's CSR check; "" when the gate did not run
	took  [numStages]time.Duration // stage times; zero for the stages not reached
}

// The CSR checks the gate chooses between, as the flight record and
// the swap log name them.
const (
	csrFull      = "full"
	csrInductive = "inductive"
)

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
// never does. A g whose layout is malformed
// (graph.CSR.ValidateShapeOn) returns its error.
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

	var a attempt
	t := time.Now()
	if err := g.ValidateShapeOn(s.pool, cfg.Options.Threads); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.sg = stream.FromCSR(g)
	g = s.sg.SnapshotOn(s.pool, cfg.Options.Threads)
	a.took[stageSnapshot] = time.Since(t)
	opt := s.runOptions()
	start := time.Now()
	a.res, a.h = core.LeidenHierarchy(g, opt)
	a.took[stageRun] = time.Since(start)
	t = time.Now()
	members, check, err := s.gate(g, stream.Merge{}, a.res, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: initial run failed the oracle gate: %w", err)
	}
	a.check = check
	a.took[stageGate] = time.Since(t)
	t = time.Now()
	snap := newSnapshot(g, s.sg.NumEdges(), a.res, a.h, members, 1, false)
	a.took[stageIndex] = time.Since(t)
	s.snap.Store(snap)
	s.recomputes.Add(1)
	s.lat["recompute_run"].ObserveDuration(time.Since(start))
	s.observeStages(a.took)
	s.recordRun("serve-initial", g, start, a, "passed")
	s.logSwap(snap, check, time.Since(start))

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

// Rejections returns the number of candidates refused: those the
// oracle gate failed and those whose recompute panicked.
func (s *Server) Rejections() int64 { return s.rejections.Load() }

// Recomputes returns the number of published snapshots.
func (s *Server) Recomputes() int64 { return s.recomputes.Load() }

// Ingest applies one delta batch to the mutable graph under the
// unified delta semantics and schedules a recompute. A rejected batch
// is a no-op on the stream graph and returns the validation error.
//
// One batch may grow the graph by at most MaxBatch vertices: a batch
// inserting an edge at a vertex id at or beyond the stream graph's
// vertex count plus MaxBatch is rejected, since the next swap would
// allocate for every vertex up to that id. (Deletions cannot grow the
// graph; one naming such a vertex fails as a missing edge.)
func (s *Server) Ingest(insertions, deletions []graph.Edge) error {
	s.mu.Lock()
	err := checkGrowth(s.sg.NumVertices()+s.cfg.MaxBatch, insertions)
	if err == nil {
		err = s.sg.Apply(insertions, deletions)
	}
	if err == nil {
		s.pendingIns = append(s.pendingIns, insertions...)
		s.pendingDel = append(s.pendingDel, deletions...)
		if s.queuedAt.IsZero() {
			s.queuedAt = time.Now()
		}
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

// checkGrowth returns an error if an insertion names a vertex ≥ limit.
func checkGrowth(limit int, insertions []graph.Edge) error {
	for _, e := range insertions {
		if v := max(e.U, e.V); int(v) >= limit {
			return fmt.Errorf("serve: insertion names vertex %d, beyond the %d vertices one batch may grow the graph to (its vertex count plus the batch limit)", v, limit)
		}
	}
	return nil
}

// Kick schedules a warm recompute over whatever delta is pending,
// possibly none (POST /recompute); a no-op when one is already queued.
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
// (capacity-1 channel, so bursts coalesce), exiting on Close.
func (s *Server) worker(ctx context.Context) {
	defer close(s.done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.kick:
		}
		s.recompute()
	}
}

// recompute takes the queued delta, runs warm-started dynamic Leiden
// on the current mutable graph, gates the candidate, and — only on a
// clean gate — publishes it. The taken delta counts as pending until
// then. On rejection it is prepended back, with its ingest time, so
// the next candidate still describes the transition from the
// (unchanged) published snapshot. A panic in the run, the gate or the
// index build counts as a rejection too (see candidate), so the
// published snapshot keeps serving and no ingested delta is lost.
func (s *Server) recompute() {
	var a attempt
	s.mu.Lock()
	t := time.Now()
	g, merged := s.sg.SnapshotMerge(s.pool, s.cfg.Options.Threads)
	a.took[stageSnapshot] = time.Since(t)
	edges := s.sg.NumEdges()
	ins, del := s.pendingIns, s.pendingDel
	s.taken = taken{ins: len(ins), del: len(del), at: s.queuedAt}
	s.pendingIns, s.pendingDel, s.queuedAt = nil, nil, time.Time{}
	s.mu.Unlock()

	prev := s.snap.Load()
	start := time.Now()
	next, err := s.candidate(g, merged, edges, core.Delta{Insertions: ins, Deletions: del}, prev, &a)
	if err != nil {
		// Re-queue the consumed delta ahead of anything ingested while
		// the run was in flight.
		s.mu.Lock()
		s.pendingIns = append(ins, s.pendingIns...)
		s.pendingDel = append(del, s.pendingDel...)
		if !s.taken.at.IsZero() {
			s.queuedAt = s.taken.at
		}
		s.taken = taken{}
		s.mu.Unlock()
		s.rejMu.Lock()
		s.lastRej = err.Error()
		s.rejMu.Unlock()
		check := "failed: " + err.Error()
		if errors.As(err, new(recovered)) {
			check = err.Error()
		}
		s.recordRun("serve-recompute", g, start, a, check)
		// Counted last: a caller that sees the count sees the rest.
		s.rejections.Add(1)
		s.logger.Warn("recompute rejected",
			slog.String("error", err.Error()),
			slog.Uint64("serving_version", prev.Version),
			slog.Duration("elapsed", time.Since(start)))
		return
	}
	s.mu.Lock()
	s.taken = taken{}
	s.snap.Store(next)
	s.mu.Unlock()
	s.recomputes.Add(1)
	s.observeStages(a.took)
	s.recordRun("serve-recompute", g, start, a, "passed")
	s.logSwap(next, a.check, a.took[stageRun])
}

// recovered is a panic that candidate turned into a rejection; its text
// is "panic: <value>".
type recovered struct{ value any }

func (r recovered) Error() string { return fmt.Sprintf("panic: %v", r.value) }

// candidate runs the warm detection on g, built by merged, resumed
// from prev's dendrogram (core.LeidenDynamicFrom), gates the result
// and builds the snapshot that would replace prev, recording in a the
// run's result and dendrogram, the gate's CSR check and each stage's
// time. It returns either the snapshot or the reason there is none:
// the gate's error, or a recovered panic. Panics raised by the run are
// recovered, including those raised on pool worker goroutines: the
// pool re-raises a region's first panic on this goroutine once every
// participant has left the region.
func (s *Server) candidate(g *graph.CSR, merged stream.Merge, edges int64, delta core.Delta, prev *Snapshot, a *attempt) (next *Snapshot, err error) {
	defer func() {
		if v := recover(); v != nil {
			next, err = nil, recovered{v}
			s.logger.Error("recompute panicked",
				slog.Any("panic", v), slog.String("stack", string(debug.Stack())))
		}
	}()
	start := time.Now()
	a.res, a.h = core.LeidenDynamicFrom(g, prev.Result.Membership, prev.Hierarchy, delta, s.cfg.Mode, s.runOptions())
	a.took[stageRun] = time.Since(start)
	s.lat["recompute_run"].ObserveDuration(a.took[stageRun])

	// The run's workspace is garbage now (45 MB on a 5×10⁵-vertex k-mer
	// graph). Collect it before the gate and the index allocate their
	// scratch (23 MB there), so they reuse its pages: a swap's heap then
	// peaks at the run's working set. Left to the collector's pacing,
	// whether the scratch lands on top of the dead workspace depends on
	// where the run's allocations hit the trigger, and the swap's
	// resident peak flips between runs. The cycle takes 1–4 ms there
	// with 2 threads on a 2-core x86 host, and is timed in no stage.
	runtime.GC()

	t := time.Now()
	members, check, err := s.gate(g, merged, a.res, prev)
	a.check = check
	if err != nil {
		return nil, err
	}
	a.took[stageGate] = time.Since(t)
	t = time.Now()
	next = newSnapshot(g, edges, a.res, a.h, members, prev.Version+1, true)
	a.took[stageIndex] = time.Since(t)
	return next, nil
}

// gate runs the invariant suite on a candidate, on the server's pool:
// CSR well-formedness, partition validity with dense labels, no
// internally-disconnected communities, and (when prev is non-nil) the
// differential quality bound. Any violation blocks publication.
// Connectivity is checked only once the CSR and partition checks
// pass, since its search walks the arcs and labels they vouch for. A
// candidate that passes gets the members index its connectivity was
// checked through, for the snapshot to serve. The gate also returns
// the CSR check it ran.
//
// The CSR check is inductive (oracle.CheckCSRFrom) when merged, the
// merge that built g, read prev's graph: that graph passed this gate
// and is never written, so g is verified from it, comparing the rows
// the merge copied and re-merging the rows it touched. Every other g
// gets the full check (oracle.CheckCSROn): the first snapshot, which
// has no prev; the first candidate after a rejection, whose merge read
// the rejected graph the stream kept as its base; and a holey graph.
func (s *Server) gate(g *graph.CSR, merged stream.Merge, res *core.Result, prev *Snapshot) (quality.Members, string, error) {
	r := &oracle.Report{}
	threads := s.cfg.Options.Threads
	check := csrFull
	if prev != nil && merged.Base == prev.Graph && merged.Base.Counts == nil && g.Counts == nil {
		check = csrInductive
		oracle.CheckCSRFrom(r, s.pool, g, merged.Base, merged.States, threads)
	} else {
		oracle.CheckCSROn(r, s.pool, g, threads)
	}
	oracle.CheckPartition(r, g, res.Membership, true)
	var members quality.Members
	if r.Ok() {
		members = quality.IndexMembers(res.Membership)
		oracle.CheckConnectedIn(r, s.pool, g, res.Membership, members, threads)
	}
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
	return members, check, r.Err()
}

// observeStages records the stage times of one published swap, so
// every stage histogram counts exactly the published swaps.
func (s *Server) observeStages(took [numStages]time.Duration) {
	for i, d := range took {
		s.stages[i].ObserveDuration(d)
	}
}

// recordRun writes the flight record of one swap attempt with the
// stages it got through; a run that panicked records only the graph,
// the stage times and the check.
func (s *Server) recordRun(algo string, g *graph.CSR, start time.Time, a attempt, check string) {
	rec := observe.RunRecord{
		Algorithm:       algo,
		Start:           start,
		WallSeconds:     time.Since(start).Seconds(),
		Vertices:        g.NumVertices(),
		Arcs:            g.NumArcs(),
		Threads:         s.cfg.Options.Threads,
		SnapshotSeconds: a.took[stageSnapshot].Seconds(),
		RunSeconds:      a.took[stageRun].Seconds(),
		GateSeconds:     a.took[stageGate].Seconds(),
		IndexSeconds:    a.took[stageIndex].Seconds(),
		Check:           check,
		Resumed:         a.h != nil && a.h.Inherited(),
		CSRCheck:        a.check,
	}
	if res := a.res; res != nil {
		for _, ps := range res.Stats.Passes {
			rec.DeltaQ += ps.DeltaQ
		}
		rec.Passes = res.Passes
		rec.Iterations = res.Stats.TotalIterations()
		rec.Moves = res.Stats.TotalMoves()
		rec.Communities = res.NumCommunities
		rec.Modularity = res.Modularity
		rec.Quality = res.Quality
		rec.Phases = res.Stats.PhaseSeconds()
	}
	observe.LogRun(s.logger, s.tel.RecordRun(rec))
}

func (s *Server) logSwap(snap *Snapshot, csrCheck string, elapsed time.Duration) {
	s.logger.Info("snapshot published",
		slog.Uint64("version", snap.Version),
		slog.Bool("warm", snap.Warm),
		slog.Bool("resumed", snap.Hierarchy.Inherited()),
		slog.String("csr_check", csrCheck),
		slog.Int("vertices", snap.Graph.NumVertices()),
		slog.Int64("edges", snap.edges),
		slog.Int("communities", snap.Result.NumCommunities),
		slog.Float64("modularity", snap.Result.Modularity),
		slog.Duration("elapsed", elapsed))
}
