// Command perfbench is the repository's benchmark: it generates one of
// three workloads from a seed, runs it against the library (cold-social,
// cold-road) or the resident server's HTTP API on loopback
// (serve-swap), checks every output, and prints its metrics as the last
// line of standard output.
//
//	perfbench -workload cold-social -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// times each layer's public calls with its own span recorder and prints
// the per-layer metrics instead. Build and run it through run.sh from
// the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workDir, under the repository root the benchmark runs from, holds
// the run's containers and span files; run.sh builds into it too.
const workDir = ".bench_build"

// defaultSeed is the seed whose input fingerprints are recorded in
// fingerprints.json; any other seed runs unchecked against them.
const defaultSeed = 1

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// runOutput is what a workload reports back to main.
type runOutput struct {
	e2e       map[string]float64 // end-to-end metrics (untraced runs)
	layer     map[string]float64 // per-layer metrics (traced runs)
	attempted int
	failed    int
	record    map[string]any // workload-specific run-record fields
	spans     *recorder      // traced runs: every span, written at exit
	breakdown []layerShare   // traced runs: self time per layer
}

// layerShare is one row of the traced run's breakdown.
type layerShare struct {
	Layer string
	SelfS float64 // per op
	Share float64 // of the end-to-end op time
}

var workloads = map[string]func(runConfig) (*runOutput, error){
	"cold-social": func(c runConfig) (*runOutput, error) { return runCold(coldSocial, c) },
	"cold-road":   func(c runConfig) (*runOutput, error) { return runCold(coldRoad, c) },
	"serve-swap":  runServeSwap,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "cold-social, cold-road or serve-swap")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: perfbench -workload cold-social|cold-road|serve-swap -seed N -seconds S -trace 0|1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	probe := hostProbe()
	start := time.Now()
	res, err := w(cfg)
	if err != nil {
		logf("%s: %v", *workload, err)
		return 1
	}

	metrics := res.e2e
	names := endToEnd
	if cfg.trace {
		metrics, names = res.layer, perLayer
		metrics["host.probe_ms"] = probe
		metrics["error_rate"] = ratio(float64(res.failed), float64(res.attempted))
	}
	reported := map[string]metricValue{}
	for _, m := range names {
		v, ok := metrics[m.name]
		if !ok {
			logf("%s: metric %s was not measured", *workload, m.name)
			return 1
		}
		reported[m.name] = metricValue{Value: v, Unit: m.unit}
	}

	rec := map[string]any{
		"workload":      *workload,
		"seed":          *seed,
		"trace":         cfg.trace,
		"seconds":       *seconds,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        sourceID("."),
		"host_probe_ms": probe,
		"wall_s":        time.Since(start).Seconds(),
	}
	for k, v := range res.record {
		rec[k] = v
	}
	if cfg.trace {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := res.spans.writeFile(path); err != nil {
			logf("writing spans: %v", err)
			return 1
		}
		rec["spans_file"] = path
		sort.Slice(res.breakdown, func(i, j int) bool { return res.breakdown[i].SelfS > res.breakdown[j].SelfS })
		fmt.Fprintf(stdout, "%-40s %12s %8s\n", "layer", "self_s/op", "share")
		for _, b := range res.breakdown {
			fmt.Fprintf(stdout, "%-40s %12.6f %7.2f%%\n", b.Layer, b.SelfS, 100*b.Share)
		}
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))

	final, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, reported})
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(final))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
}

// startHTTP serves h on a loopback port until stop is called; stop
// waits for the server to finish.
func startHTTP(h http.Handler) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}
