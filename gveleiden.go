// Package gveleiden is a fast shared-memory parallel implementation of
// the Leiden community-detection algorithm — a Go reproduction of
// "Fast Leiden Algorithm for Community Detection in Shared Memory
// Setting" (Sahu, Kothapalli, Banerjee; ICPP 2024).
//
// The package is a thin public facade over the internal implementation:
//
//	g, err := gveleiden.LoadGraph("web.mtx")
//	res := gveleiden.Leiden(g, gveleiden.DefaultOptions())
//	fmt.Println(res.NumCommunities, res.Modularity)
//
// Graphs are weighted CSR structures built with NewBuilder or loaded
// from Matrix Market / edge-list / binary files. Leiden runs the
// paper's GVE-Leiden algorithm (asynchronous parallel local moving,
// greedy constrained refinement, prefix-sum CSR aggregation); Louvain
// runs GVE-Louvain, the same machinery without the refinement phase.
package gveleiden

import (
	"io"
	"log/slog"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
	"gveleiden/internal/observe"
	"gveleiden/internal/parallel"
	"gveleiden/internal/quality"
)

// Graph is a weighted undirected graph in CSR form.
type Graph = graph.CSR

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// Edge is a weighted undirected edge for FromEdges.
type Edge = graph.Edge

// Options configures a Leiden or Louvain run.
type Options = core.Options

// Result is the output of a run: membership, community count,
// modularity, and per-phase statistics.
type Result = core.Result

// Stats aggregates per-pass phase timings.
type Stats = core.Stats

// RefinementMode selects greedy or randomized refinement.
type RefinementMode = core.RefinementMode

// LabelMode selects move-based or refine-based super-vertex labels.
type LabelMode = core.LabelMode

// Variant selects the light / medium / heavy effort level.
type Variant = core.Variant

// Re-exported enumeration values; see the core package for semantics.
const (
	RefineGreedy = core.RefineGreedy
	RefineRandom = core.RefineRandom
	LabelMove    = core.LabelMove
	LabelRefine  = core.LabelRefine
	VariantLight = core.VariantLight
	VariantMed   = core.VariantMedium
	VariantHeavy = core.VariantHeavy
)

// Pool is a persistent work-stealing worker pool. Every parallel
// region of a run executes on one; by default all runs share a single
// process-wide pool whose workers spawn once and park between regions.
// Construct a dedicated Pool (and set Options.Pool) to isolate
// concurrent runs from each other.
type Pool = parallel.Pool

// NewPool returns a dedicated worker pool with the given number of
// persistent workers (0 = GOMAXPROCS). Close it when done.
func NewPool(threads int) *Pool { return parallel.NewPool(threads) }

// DefaultPool returns the shared process-wide pool used when
// Options.Pool is nil.
func DefaultPool() *Pool { return parallel.Default() }

// DefaultOptions returns the configuration evaluated in the paper.
func DefaultOptions() Options { return core.DefaultOptions() }

// Leiden detects communities with GVE-Leiden.
func Leiden(g *Graph, opt Options) *Result { return core.Leiden(g, opt) }

// Louvain detects communities with GVE-Louvain (no refinement phase;
// may emit internally-disconnected communities).
func Louvain(g *Graph, opt Options) *Result { return core.Louvain(g, opt) }

// NewBuilder returns a graph builder expecting at least n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a symmetric weighted graph from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// FromAdjacency builds a unit-weight graph from adjacency lists.
func FromAdjacency(adj [][]uint32) *Graph { return graph.FromAdjacency(adj) }

// LoadGraph loads a graph from a .gvecsr container (memory-mapped; see
// storage.go and FORMAT.md), or a .mtx or edge-list file.
func LoadGraph(path string) (*Graph, error) {
	f, err := gvecsr.LoadAny(path)
	if err != nil {
		return nil, err
	}
	return f.Graph()
}

// Modularity evaluates Equation 1 of the paper for any membership.
func Modularity(g *Graph, membership []uint32) float64 {
	return quality.Modularity(g, membership)
}

// CPM evaluates the Constant Potts Model quality function.
func CPM(g *Graph, membership []uint32, gamma float64) float64 {
	return quality.CPM(g, membership, gamma)
}

// DisconnectedStats reports internally-disconnected communities.
type DisconnectedStats = quality.DisconnectedStats

// CountDisconnected counts internally-disconnected communities — the
// defect Leiden exists to prevent (Figure 6d of the paper).
func CountDisconnected(g *Graph, membership []uint32, threads int) DisconnectedStats {
	return quality.CountDisconnected(g, membership, threads)
}

// NMI compares two partitions (1 = identical up to relabeling).
func NMI(a, b []uint32) float64 { return quality.NMI(a, b) }

// Level is one layer of the community dendrogram.
type Level = core.Level

// Hierarchy is the full dendrogram of a run; Flatten(d) composes the
// first d levels back onto the input vertices.
type Hierarchy = core.Hierarchy

// LeidenHierarchy runs Leiden and also returns the full dendrogram —
// one level per pass, each a partition of the previous level's
// communities. Useful for multi-resolution views of the network.
func LeidenHierarchy(g *Graph, opt Options) (*Result, *Hierarchy) {
	return core.LeidenHierarchy(g, opt)
}

// LeidenDeterministic runs Leiden in deterministic mode: the local
// moving and refinement phases process graph-coloring classes with
// frozen decision kernels, so on integer-weight graphs the result is
// identical for any thread count. Equivalent to setting
// Options.Deterministic.
func LeidenDeterministic(g *Graph, opt Options) *Result {
	opt.Deterministic = true
	return core.Leiden(g, opt)
}

// Observability. Set Options.Tracer and/or Options.Observer to watch a
// run; both default to nil, which keeps every instrumentation site on a
// no-op fast path.

// Tracer records phase/pass/iteration spans of a run and writes them as
// Chrome trace-event JSON (chrome://tracing, Perfetto).
type Tracer = observe.Tracer

// NewTracer returns a tracer whose timeline starts now.
func NewTracer() *Tracer { return observe.NewTracer() }

// Observer receives pass and iteration events during a run.
type Observer = observe.Observer

// PassEvent describes one completed pass (super-vertex level).
type PassEvent = observe.PassEvent

// IterEvent describes one completed local-moving iteration.
type IterEvent = observe.IterEvent

// Progress is an Observer that streams one line per pass to a writer.
type Progress = observe.Progress

// NewProgress returns a Progress observer writing to w.
func NewProgress(w io.Writer) *Progress { return observe.NewProgress(w) }

// MultiObserver fans events out to several observers in order.
func MultiObserver(obs ...Observer) Observer { return observe.Multi(obs...) }

// LevelEvent describes one completed aggregating pass, delivered to
// Options.Inspector: the level graph, its move and refined partitions,
// and the freshly aggregated super-vertex graph. The slices and the
// aggregated graph alias live workspace memory — read them during the
// callback, do not retain them. The internal/oracle package builds its
// per-level invariant checks on this hook.
type LevelEvent = core.LevelEvent

// LevelInspector receives a LevelEvent after each aggregating pass.
type LevelInspector = core.LevelInspector

// MetricSet is an ordered collection of metrics writable as Prometheus
// text exposition format or JSON.
type MetricSet = observe.MetricSet

// NewMetricSet returns an empty metric set.
func NewMetricSet() *MetricSet { return observe.NewMetricSet() }

// PoolCounters is a snapshot of a worker pool's scheduler counters:
// regions, chunk claims, steals, park/unpark cycles.
type PoolCounters = parallel.CounterSnapshot

// AddRunMetrics appends a run's statistics (totals, phase-split
// fractions, per-pass series) to ms.
func AddRunMetrics(ms *MetricSet, s Stats) { s.AddMetrics(ms) }

// AddPoolMetrics appends a pool counter snapshot to ms.
func AddPoolMetrics(ms *MetricSet, c PoolCounters) { core.AddPoolMetrics(ms, c) }

// Continuous telemetry. The types above observe a single run; the types
// below aggregate across a process lifetime — histograms of phase
// durations, a flight recorder of recent runs, a runtime-metrics
// sampler, and an HTTP introspection server tying them together.

// Histogram is a lock-free log-linear latency/value histogram with
// padded per-worker shards; Observe is allocation-free and a nil
// *Histogram discards observations.
type Histogram = observe.Histogram

// NewHistogram returns a histogram sharded for the current GOMAXPROCS.
func NewHistogram() *Histogram { return observe.NewHistogram() }

// HistogramSnapshot is a merged point-in-time view of a Histogram.
type HistogramSnapshot = observe.HistogramSnapshot

// Telemetry aggregates runs continuously: per-phase duration
// histograms, pass/run/ΔQ histograms, pool region latencies, lifetime
// counters, and a flight recorder. It implements Observer — set it as
// Options.Observer and it accumulates every pass of every run.
type Telemetry = observe.Telemetry

// NewTelemetry returns a telemetry aggregator whose flight recorder
// keeps the last flightSize runs (the default when <= 0).
func NewTelemetry(flightSize int) *Telemetry { return observe.NewTelemetry(flightSize) }

// FlightRecorder is a bounded ring of recent run records, dumpable as
// JSON at any time with zero steady-state allocation.
type FlightRecorder = observe.FlightRecorder

// RunRecord is one completed run as the flight recorder remembers it.
type RunRecord = observe.RunRecord

// PhaseSeconds is the per-phase wall-time breakdown of one run.
type PhaseSeconds = observe.PhaseSeconds

// Sampler polls runtime/metrics (heap, goroutines, GC pauses,
// scheduling latency) on an interval for exposition alongside the
// algorithm's own telemetry.
type Sampler = observe.Sampler

// NewSampler returns a sampler polling every interval (the default
// when <= 0). Call Start to begin and Stop to halt it.
func NewSampler(interval time.Duration) *Sampler { return observe.NewSampler(interval) }

// IntrospectionServer serves /metrics, /metrics.json, /healthz,
// /debug/flight, /debug/vars, and /debug/pprof on one mux. The gather
// callback assembles each scrape; Start binds synchronously and
// Shutdown drains gracefully.
type IntrospectionServer = observe.Server

// NewIntrospectionServer builds an unstarted introspection server.
func NewIntrospectionServer(addr string, gather func() *MetricSet, flight *FlightRecorder) *IntrospectionServer {
	return observe.NewServer(addr, gather, flight)
}

// NewLogger builds a slog.Logger writing to w as "json" or text.
func NewLogger(w io.Writer, format string, level slog.Level) *slog.Logger {
	return observe.NewLogger(w, format, level)
}

// SlogObserver is an Observer emitting one structured log record per
// pass — the structured-logging counterpart of Progress.
type SlogObserver = observe.SlogObserver

// NewSlogObserver returns an observer logging pass summaries to l.
func NewSlogObserver(l *slog.Logger) *SlogObserver { return observe.NewSlogObserver(l) }

// LogRun emits the standard run-summary record for a RunRecord.
func LogRun(l *slog.Logger, r RunRecord) { observe.LogRun(l, r) }
