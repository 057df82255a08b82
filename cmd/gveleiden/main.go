// Command gveleiden detects communities in a graph with GVE-Leiden (or
// GVE-Louvain) and reports quality metrics and phase timings.
//
//	gveleiden -i graph.mtx                  # Matrix Market input
//	gveleiden -i graph.txt -algo louvain    # edge-list input, Louvain
//	gveleiden -gen web -n 100000            # synthetic input
//	gveleiden -i g.mtx -o membership.txt    # write vertex→community map
//	gveleiden -i g.mtx -refine random -labels refine -variant heavy
//
// Observability:
//
//	gveleiden -gen web -n 200000 -v                      # per-pass progress + stats table
//	gveleiden -i g.mtx -trace trace.json                 # Chrome/Perfetto trace of the run
//	gveleiden -i g.mtx -metrics metrics.txt              # Prometheus text metrics
//	gveleiden -gen web -serve :6060 -repeat 20           # live introspection server:
//	                                                     # /metrics /metrics.json /healthz
//	                                                     # /debug/flight /debug/vars /debug/pprof
//	gveleiden -gen web -log-format json                  # structured run/pass logs on stderr
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/export"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
	"gveleiden/internal/observe"
	"gveleiden/internal/oracle"
	"gveleiden/internal/parallel"
	"gveleiden/internal/quality"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config holds the parsed command line.
type config struct {
	input, genName              string
	n                           int
	seed                        uint64
	algo                        string
	threads, maxPass            int
	refine, labels, variant     string
	objective                   string
	tol, tolDrop, aggTol, resol float64
	out, exportDot, exportGML   string
	determ, verbose             bool
	traceOut, metricOut         string
	serveAddr                   string
	repeat                      int
	linger                      time.Duration
	logFormat                   string
	sampleInterval              time.Duration
	flightSize                  int
	checkDis, check             bool
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("gveleiden", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.input, "i", "", "input graph file (.gvecsr, .mtx, or edge list)")
	fs.StringVar(&c.genName, "gen", "", "generate input instead: web|social|road|kmer|er|ba|rmat")
	fs.IntVar(&c.n, "n", 100000, "vertices for generated input")
	fs.Uint64Var(&c.seed, "seed", 1, "generator seed")
	fs.StringVar(&c.algo, "algo", "leiden", "algorithm: leiden|louvain")
	fs.IntVar(&c.threads, "threads", 0, "worker threads (0 = GOMAXPROCS)")
	fs.StringVar(&c.refine, "refine", "greedy", "refinement: greedy|random")
	fs.StringVar(&c.labels, "labels", "move", "super-vertex labels: move|refine")
	fs.StringVar(&c.variant, "variant", "light", "variant: light|medium|heavy")
	fs.StringVar(&c.objective, "objective", "modularity", "quality function: modularity|cpm")
	fs.IntVar(&c.maxPass, "passes", 10, "max passes")
	fs.Float64Var(&c.tol, "tolerance", 0.01, "initial iteration tolerance")
	fs.Float64Var(&c.tolDrop, "tolerance-drop", 10, "divide the tolerance by this after every pass (threshold scaling, >= 1)")
	fs.Float64Var(&c.aggTol, "aggregation-tolerance", 0.8, "stop when a pass shrinks the graph by less than this factor (in (0,1])")
	fs.Float64Var(&c.resol, "resolution", 1.0, "modularity resolution γ")
	fs.StringVar(&c.out, "o", "", "write membership (one 'vertex community' line each)")
	fs.StringVar(&c.exportDot, "export-dot", "", "write a Graphviz DOT file colored by community")
	fs.StringVar(&c.exportGML, "export-graphml", "", "write a GraphML file with community attributes")
	fs.BoolVar(&c.determ, "deterministic", false, "coloring-ordered phases: identical results for any thread count")
	fs.BoolVar(&c.verbose, "v", false, "stream per-pass progress to stderr and print the per-pass statistics table")
	fs.StringVar(&c.traceOut, "trace", "", "write a Chrome-trace JSON profile of the run to this file (flushed even on SIGINT)")
	fs.StringVar(&c.metricOut, "metrics", "", "write Prometheus text metrics of the run to this file (- for stdout)")
	fs.StringVar(&c.serveAddr, "serve", "", "serve the introspection endpoint (/metrics, /metrics.json, /healthz, /debug/flight, /debug/vars, /debug/pprof) on this address")
	fs.IntVar(&c.repeat, "repeat", 1, "run the algorithm this many times on the loaded graph; telemetry accumulates across runs")
	fs.DurationVar(&c.linger, "linger", 0, "with -serve: keep serving this long after the runs finish (negative = until SIGINT/SIGTERM)")
	fs.StringVar(&c.logFormat, "log-format", "", "structured run/pass logging to stderr: json|text (empty = off)")
	fs.DurationVar(&c.sampleInterval, "sample-interval", observe.DefaultSampleInterval, "runtime-metrics poll interval for the -serve sampler")
	fs.IntVar(&c.flightSize, "flight", observe.DefaultFlightSize, "flight-recorder capacity: last N run records kept for /debug/flight")
	fs.BoolVar(&c.checkDis, "check-disconnected", true, "count internally-disconnected communities")
	fs.BoolVar(&c.check, "check", false, "run the correctness oracle on this run (per-level and whole-run invariants); exit nonzero on any violation")
	pprofAddr := fs.String("pprof", "", "deprecated alias for -serve (same endpoint set)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *pprofAddr != "" {
		if c.serveAddr == "" {
			c.serveAddr = *pprofAddr
		}
		fmt.Fprintln(stderr, "gveleiden: -pprof is deprecated; use -serve (same endpoints plus /metrics)")
	}
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "gveleiden: %v\n", err)
		return 1
	}
	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "gveleiden: "+format+"\n", a...)
		return 2
	}
	if err := validateFlags(c.threads, c.maxPass, c.tol, c.tolDrop, c.aggTol, c.resol); err != nil {
		return usageErr("%v", err)
	}
	if c.repeat < 1 {
		return usageErr("-repeat must be >= 1, got %d", c.repeat)
	}

	opt := core.DefaultOptions()
	opt.Threads = c.threads
	opt.MaxPasses = c.maxPass
	opt.Tolerance = c.tol
	opt.ToleranceDrop = c.tolDrop
	opt.AggregationTolerance = c.aggTol
	opt.Resolution = c.resol
	opt.Deterministic = c.determ
	switch c.refine {
	case "greedy":
		opt.Refinement = core.RefineGreedy
	case "random":
		opt.Refinement = core.RefineRandom
	default:
		return usageErr("unknown refinement %q", c.refine)
	}
	switch c.labels {
	case "move":
		opt.Labels = core.LabelMove
	case "refine":
		opt.Labels = core.LabelRefine
	default:
		return usageErr("unknown labels mode %q", c.labels)
	}
	switch c.variant {
	case "light":
		opt.Variant = core.VariantLight
	case "medium":
		opt.Variant = core.VariantMedium
	case "heavy":
		opt.Variant = core.VariantHeavy
	default:
		return usageErr("unknown variant %q", c.variant)
	}
	switch c.objective {
	case "modularity":
		opt.Objective = core.ObjectiveModularity
	case "cpm":
		opt.Objective = core.ObjectiveCPM
	default:
		return usageErr("unknown objective %q", c.objective)
	}
	if c.algo != "leiden" && c.algo != "louvain" {
		return usageErr("unknown algorithm %q", c.algo)
	}

	var logger *slog.Logger
	if c.logFormat != "" {
		logger = observe.NewLogger(stderr, c.logFormat, slog.LevelInfo)
	}

	// The tracer's sink is registered up front so the SIGINT handler can
	// salvage a readable trace from a killed run with one Close call.
	var tracer *observe.Tracer
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		if err != nil {
			return fail(err)
		}
		tracer = observe.NewTracer()
		tracer.SetOutput(f)
	}
	opt.Tracer = tracer

	// Continuous telemetry: always on (the per-event cost is a few
	// atomic adds), feeding the flight recorder, the -metrics export,
	// and the -serve endpoint. The pool region-latency histogram is the
	// one observability hook with a region-granular clock cost, so it is
	// attached only when something exports it.
	tel := observe.NewTelemetry(c.flightSize)
	if c.serveAddr != "" || c.metricOut != "" {
		parallel.Default().SetRegionLatency(tel.Region())
		defer parallel.Default().SetRegionLatency(nil)
	}
	var progress, slogObs observe.Observer
	if c.verbose {
		progress = observe.NewProgress(stderr)
	}
	if logger != nil {
		slogObs = observe.NewSlogObserver(logger)
	}
	opt.Observer = observe.Multi(progress, slogObs, tel)

	// Live state behind the -serve gather callback: the scrape reports
	// the latest completed run alongside the cumulative telemetry.
	var st struct {
		sync.Mutex
		g       *graph.CSR
		res     *core.Result
		threads int
	}
	var sampler *observe.Sampler
	var server *observe.Server
	if c.serveAddr != "" {
		sampler = observe.NewSampler(c.sampleInterval)
		gather := func() *observe.MetricSet {
			ms := observe.NewMetricSet()
			st.Lock()
			g, res, thr := st.g, st.res, st.threads
			st.Unlock()
			if g != nil {
				core.RunInfoMetrics(ms, g.NumVertices(), g.NumArcs(), thr, res)
			}
			if res != nil {
				res.Stats.AddMetrics(ms)
			}
			core.AddPoolMetrics(ms, parallel.Default().Counters())
			tel.AddTo(ms)
			sampler.AddTo(ms)
			return ms
		}
		server = observe.NewServer(c.serveAddr, gather, tel.Flight())
		if err := server.Start(); err != nil {
			return fail(err)
		}
		sampler.Start()
		fmt.Fprintf(stdout, "serving on http://%s (metrics, healthz, debug/flight, debug/pprof)\n", server.Addr())
	}

	// SIGINT/SIGTERM: flush the trace, drain the server, and exit 130 —
	// a killed long run still yields its artifacts.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		if _, ok := <-sigCh; !ok {
			return
		}
		if logger != nil {
			logger.Info("interrupted", slog.String("action", "flushing trace and shutting down"))
		}
		tracer.Close()
		if server != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			server.Shutdown(ctx)
			cancel()
		}
		sampler.Stop()
		os.Exit(130)
	}()

	lsp := tracer.Begin("load-graph", 0)
	g, err := loadOrGenerate(c.input, c.genName, c.n, c.seed)
	if err != nil {
		return fail(err)
	}
	lsp.EndArgs(map[string]any{"vertices": g.NumVertices(), "arcs": g.NumArcs()})
	fmt.Fprintf(stdout, "graph: |V|=%d |E|=%d\n", g.NumVertices(), g.NumUndirectedEdges())
	effThreads := c.threads
	if effThreads <= 0 {
		effThreads = parallel.DefaultThreads()
	}
	st.Lock()
	st.g, st.threads = g, effThreads
	st.Unlock()
	if logger != nil {
		logger.Info("graph loaded",
			slog.Int("vertices", g.NumVertices()),
			slog.Int64("arcs", g.NumArcs()),
			slog.Int("threads", effThreads))
	}

	if c.metricOut != "" {
		// Scope the pool counter snapshot to the runs below.
		parallel.Default().ResetCounters()
	}

	var res *core.Result
	for runIdx := 0; runIdx < c.repeat; runIdx++ {
		runOpt := opt
		var lc *oracle.LevelChecks
		if c.check {
			lc = &oracle.LevelChecks{R: &oracle.Report{}, Threads: c.threads}
			runOpt = lc.Attach(runOpt)
		}
		runStart := time.Now()
		switch c.algo {
		case "leiden":
			res = core.Leiden(g, runOpt)
		case "louvain":
			res = core.Louvain(g, runOpt)
		}
		elapsed := time.Since(runStart)
		st.Lock()
		st.res = res
		st.Unlock()

		checkOutcome := ""
		var checkErr error
		if lc != nil {
			oracle.CheckRun(lc.R, g, res, c.algo == "leiden", c.threads)
			if checkErr = lc.R.Err(); checkErr != nil {
				checkOutcome = "failed: " + checkErr.Error()
			} else {
				checkOutcome = "passed"
			}
		}

		var dq float64
		for _, ps := range res.Stats.Passes {
			dq += ps.DeltaQ
		}
		rec := tel.RecordRun(observe.RunRecord{
			Algorithm:   c.algo,
			Start:       runStart,
			WallSeconds: elapsed.Seconds(),
			Vertices:    g.NumVertices(),
			Arcs:        g.NumArcs(),
			Threads:     effThreads,
			Passes:      res.Passes,
			Iterations:  res.Stats.TotalIterations(),
			Moves:       res.Stats.TotalMoves(),
			DeltaQ:      dq,
			Communities: res.NumCommunities,
			Modularity:  res.Modularity,
			Quality:     res.Quality,
			Phases:      res.Stats.PhaseSeconds(),
			Check:       checkOutcome,
		})
		observe.LogRun(logger, rec)

		fmt.Fprintf(stdout, "%s: %d communities, modularity %.6f, %d passes, %s\n",
			c.algo, res.NumCommunities, res.Modularity, res.Passes, elapsed.Round(time.Microsecond))
		if opt.Objective == core.ObjectiveCPM {
			fmt.Fprintf(stdout, "CPM(γ=%g) = %.6f\n", opt.Resolution, res.Quality)
		}
		rate := float64(g.NumUndirectedEdges()) / elapsed.Seconds() / 1e6
		fmt.Fprintf(stdout, "processing rate: %.1f M edges/s\n", rate)
		if c.verbose {
			fmt.Fprint(stdout, res.Stats.String())
		}
		if lc != nil {
			if checkErr != nil {
				return fail(checkErr)
			}
			fmt.Fprintf(stdout, "oracle: %d invariant checks across %d levels, all passed\n", lc.R.Checks, lc.Levels)
		}
	}

	if c.traceOut != "" {
		if err := tracer.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", c.traceOut)
	}
	if c.metricOut != "" {
		ms := observe.NewMetricSet()
		core.RunInfoMetrics(ms, g.NumVertices(), g.NumArcs(), effThreads, res)
		res.Stats.AddMetrics(ms)
		core.AddPoolMetrics(ms, parallel.Default().Counters())
		tel.AddTo(ms)
		if c.metricOut == "-" {
			if err := ms.WritePrometheus(stdout); err != nil {
				return fail(err)
			}
		} else {
			if err := exportTo(c.metricOut, ms.WritePrometheus); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "metrics written to %s\n", c.metricOut)
		}
	}

	if c.checkDis {
		ds := quality.CountDisconnected(g, res.Membership, c.threads)
		fmt.Fprintf(stdout, "disconnected communities: %d of %d (fraction %.2e)\n",
			ds.Disconnected, ds.Communities, ds.Fraction)
	}

	if c.out != "" {
		if err := writeMembership(c.out, res.Membership); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "membership written to %s\n", c.out)
	}
	if c.exportDot != "" {
		if err := exportTo(c.exportDot, func(w io.Writer) error {
			return export.WriteDOT(w, g, res.Membership)
		}); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "DOT written to %s\n", c.exportDot)
	}
	if c.exportGML != "" {
		if err := exportTo(c.exportGML, func(w io.Writer) error {
			return export.WriteGraphML(w, g, res.Membership)
		}); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "GraphML written to %s\n", c.exportGML)
	}

	if server != nil {
		if c.linger < 0 {
			fmt.Fprintln(stdout, "runs complete; serving until SIGINT/SIGTERM")
			select {} // the signal handler exits the process
		} else if c.linger > 0 {
			fmt.Fprintf(stdout, "runs complete; serving for another %s\n", c.linger)
			time.Sleep(c.linger)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := server.Shutdown(ctx); err != nil {
			return fail(err)
		}
		sampler.Stop()
	}
	if logger != nil {
		logger.Info("exit", slog.Int("runs", c.repeat))
	}
	return 0
}

// validateFlags rejects numeric flag values the algorithm cannot run
// with, instead of letting core.Options.normalize silently replace them
// with defaults (a typo like -resolution=-1 should be an error, not a
// quiet γ=1 run). The !(x > bound) form deliberately catches NaN.
func validateFlags(threads, passes int, tol, drop, aggTol, resol float64) error {
	if threads < 0 {
		return fmt.Errorf("-threads must be >= 0, got %d", threads)
	}
	if passes < 1 {
		return fmt.Errorf("-passes must be >= 1, got %d", passes)
	}
	if !(resol > 0) || math.IsInf(resol, 0) {
		return fmt.Errorf("-resolution must be a positive finite number, got %g", resol)
	}
	if !(tol > 0) || math.IsInf(tol, 0) {
		return fmt.Errorf("-tolerance must be a positive finite number, got %g", tol)
	}
	if !(drop >= 1) || math.IsInf(drop, 0) {
		return fmt.Errorf("-tolerance-drop must be a finite number >= 1, got %g", drop)
	}
	if !(aggTol > 0 && aggTol <= 1) {
		return fmt.Errorf("-aggregation-tolerance must be in (0, 1], got %g", aggTol)
	}
	return nil
}

func exportTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func loadOrGenerate(input, genName string, n int, seed uint64) (*graph.CSR, error) {
	if input != "" {
		// gvecsr containers are memory-mapped; the mapping stays alive
		// for the process lifetime, which is exactly the graph's.
		f, err := gvecsr.LoadAny(input)
		if err != nil {
			return nil, err
		}
		return f.Graph()
	}
	switch genName {
	case "web":
		g, _ := gen.WebGraph(n, 20, seed)
		return g, nil
	case "social":
		g, _ := gen.SocialNetwork(n, 20, 64, 0.35, seed)
		return g, nil
	case "road":
		g, _ := gen.RoadNetwork(n, seed)
		return g, nil
	case "kmer":
		g, _ := gen.KmerGraph(n, seed)
		return g, nil
	case "er":
		return gen.ErdosRenyi(n, n*8, seed), nil
	case "ba":
		return gen.BarabasiAlbert(n, 8, seed), nil
	case "rmat":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return gen.RMAT(scale, n*8, 0, 0, 0, seed), nil
	case "":
		return nil, fmt.Errorf("need -i FILE or -gen NAME (web|social|road|kmer|er|ba|rmat)")
	default:
		return nil, fmt.Errorf("unknown generator %q", genName)
	}
}

func writeMembership(path string, membership []uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return quality.WritePartition(f, membership)
}
