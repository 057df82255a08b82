// Command gveserve is the resident community-detection server: it
// loads (or generates) a graph once, runs GVE-Leiden, and answers
// structural queries over HTTP from an immutable snapshot — community
// membership, community rosters, intra-community neighbourhoods,
// hierarchy drill-down, partition statistics. Edge deltas ingested via
// POST /delta are folded into fresh snapshots by a background
// warm-started dynamic Leiden run, each gated by the correctness
// oracle before the atomic swap.
//
//	gveserve -gen social -n 100000 -addr :8080
//	gveserve -i graph.mtx -addr 127.0.0.1:8080 -mode frontier
//	gveserve -gen web -n 50000 -log-format json
//
// Endpoints:
//
//	GET  /community?v=ID     community of a vertex (+ size)
//	GET  /members?c=ID       sorted members of a community (&limit=N)
//	GET  /neighbors?v=ID     intra-community neighbours of a vertex
//	GET  /hierarchy?v=ID     community at every dendrogram depth
//	GET  /stats              snapshot shape, quality, serving counters
//	POST /delta              ingest {"insertions":[{"u","v","w"}],"deletions":[...]}
//	POST /recompute          warm recompute over whatever delta is pending (possibly none)
//	GET  /metrics /metrics.json /healthz /debug/flight /debug/vars /debug/pprof/...
//
// SIGINT/SIGTERM drain in-flight requests, let any running recompute
// finish (bounded), and exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
	"gveleiden/internal/observe"
	"gveleiden/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	input, genName string
	n              int
	seed           uint64
	addr           string
	threads        int
	mode           string
	maxBatch       int
	maxBody        int64
	qualityDrop    float64
	logFormat      string
	flightSize     int
	sampleInterval time.Duration
	resolution     float64
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("gveserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.input, "i", "", "input graph file (.gvecsr, .mtx, or edge list)")
	fs.StringVar(&c.genName, "gen", "", "generate input instead: web|social|road|kmer|er|ba|rmat")
	fs.IntVar(&c.n, "n", 100000, "vertices for generated input")
	fs.Uint64Var(&c.seed, "seed", 1, "generator seed")
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	fs.IntVar(&c.threads, "threads", 0, "worker threads for detection runs (0 = GOMAXPROCS)")
	fs.StringVar(&c.mode, "mode", "frontier", "warm-start strategy for recomputes: naive|frontier")
	fs.IntVar(&c.maxBatch, "max-batch", 100000, "max insertions+deletions per delta request")
	fs.Int64Var(&c.maxBody, "max-body", 8<<20, "max request body bytes")
	fs.Float64Var(&c.qualityDrop, "quality-drop", 0.25, "oracle gate: max modularity drop vs the published snapshot")
	fs.StringVar(&c.logFormat, "log-format", "", "structured swap/ingest logging to stderr: json|text (empty = off)")
	fs.IntVar(&c.flightSize, "flight", observe.DefaultFlightSize, "flight-recorder capacity: last N recomputes kept for /debug/flight")
	fs.DurationVar(&c.sampleInterval, "sample-interval", observe.DefaultSampleInterval, "runtime-metrics poll interval")
	fs.Float64Var(&c.resolution, "resolution", 1.0, "modularity resolution γ for detection runs")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "gveserve: %v\n", err)
		return 1
	}
	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "gveserve: "+format+"\n", a...)
		return 2
	}
	if c.threads < 0 {
		return usageErr("-threads must be >= 0, got %d", c.threads)
	}
	if c.maxBatch < 1 {
		return usageErr("-max-batch must be >= 1, got %d", c.maxBatch)
	}
	if c.maxBody < 1 {
		return usageErr("-max-body must be >= 1, got %d", c.maxBody)
	}
	if !(c.resolution > 0) {
		return usageErr("-resolution must be positive, got %g", c.resolution)
	}

	cfg := serve.DefaultConfig()
	cfg.Options.Threads = c.threads
	cfg.Options.Resolution = c.resolution
	cfg.MaxBatch = c.maxBatch
	cfg.MaxBody = c.maxBody
	cfg.MaxQualityDrop = c.qualityDrop
	cfg.FlightSize = c.flightSize
	switch c.mode {
	case "naive":
		cfg.Mode = core.DynamicNaive
	case "frontier":
		cfg.Mode = core.DynamicFrontier
	default:
		return usageErr("unknown mode %q (want naive or frontier)", c.mode)
	}
	if c.logFormat != "" {
		cfg.Logger = observe.NewLogger(stderr, c.logFormat, slog.LevelInfo)
	}
	sampler := observe.NewSampler(c.sampleInterval)
	cfg.ExtraMetrics = sampler.AddTo

	g, err := loadOrGenerate(c.input, c.genName, c.n, c.seed)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "graph: |V|=%d |E|=%d\n", g.NumVertices(), g.NumUndirectedEdges())

	buildStart := time.Now()
	s, err := serve.New(g, cfg)
	if err != nil {
		return fail(err)
	}
	snap := s.Snapshot()
	fmt.Fprintf(stdout, "initial snapshot: %d communities, modularity %.6f, %s\n",
		snap.Result.NumCommunities, snap.Result.Modularity,
		time.Since(buildStart).Round(time.Millisecond))

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		s.Close(context.Background())
		return fail(err)
	}
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
		close(serveErr)
	}()
	sampler.Start()
	fmt.Fprintf(stdout, "serving on http://%s (community, members, neighbors, hierarchy, stats, delta, recompute, metrics, healthz)\n",
		ln.Addr().String())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case err, ok := <-serveErr:
		sampler.Stop()
		if ok && err != nil {
			return fail(err)
		}
		return 0
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "received %v; draining\n", sig)
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// stop the recompute worker (a run in flight finishes first, up to
	// the bound below — past it the worker is abandoned and the process
	// exits anyway).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "gveserve: http shutdown: %v\n", err)
	}
	cancel()
	if err, ok := <-serveErr; ok && err != nil {
		fmt.Fprintf(stderr, "gveserve: serve: %v\n", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	if err := s.Close(ctx); err != nil {
		fmt.Fprintf(stderr, "gveserve: %v\n", err)
	}
	cancel()
	sampler.Stop()
	fmt.Fprintln(stdout, "shutdown complete")
	return 0
}

func loadOrGenerate(input, genName string, n int, seed uint64) (*graph.CSR, error) {
	if input != "" {
		// Containers are memory-mapped (gvecsr.Open): the server keeps
		// the snapshot's base graph for its whole lifetime, so the
		// mapping is never unmapped — and restarts reload in
		// milliseconds instead of re-parsing text.
		f, err := gvecsr.LoadAny(input)
		if err != nil {
			return nil, err
		}
		return f.Graph()
	}
	if genName == "" {
		return nil, fmt.Errorf("need -i FILE or -gen NAME (web|social|road|kmer|er|ba|rmat)")
	}
	return gen.ByName(genName, n, seed)
}
