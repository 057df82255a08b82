// Command benchall regenerates every table and figure of the paper's
// evaluation section plus the extension experiments (see DESIGN.md §4
// and §4b for the index):
//
//	benchall                    # run the full suite
//	benchall -exp fig6,table1   # run selected experiments
//	benchall -scale 2 -repeat 5 # bigger corpus, tighter averaging
//	benchall -o report.txt      # also write the report to a file
//	benchall -csv out/          # also write one CSV per table
//
// An -exp list that names an unknown experiment, or none, exits 2 and
// lists the valid names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gveleiden/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// fig6 and table1 render one set of RunComparison runs.
	var cmp []bench.CompareResult
	comparison := func(cfg bench.Config) []bench.CompareResult {
		if cmp == nil {
			cmp = bench.RunComparison(cfg)
		}
		return cmp
	}
	// The experiments in the order -exp all runs them, each with the
	// names that select it.
	experiments := []struct {
		names []string
		run   func(bench.Config) []bench.Table
	}{
		{[]string{"table2"}, bench.Table2},
		{[]string{"fig6"}, func(cfg bench.Config) []bench.Table { return bench.Fig6(comparison(cfg)) }},
		{[]string{"table1"}, func(cfg bench.Config) []bench.Table { return bench.Table1(comparison(cfg)) }},
		{[]string{"fig1", "fig2"}, bench.Fig1And2},
		{[]string{"fig3", "fig4"}, bench.Fig3And4},
		{[]string{"fig7"}, bench.Fig7},
		{[]string{"fig8"}, bench.Fig8},
		{[]string{"fig9"}, bench.Fig9},
		{[]string{"quality"}, bench.Fig8Quality},
		{[]string{"dynamic"}, bench.DynamicExperiment},
		{[]string{"ablation"}, bench.AblationExperiment},
		{[]string{"cpm"}, bench.CPMExperiment},
		{[]string{"profile"}, bench.ProfileExperiment},
		{[]string{"ordering"}, bench.OrderingExperiment},
		{[]string{"lpa"}, bench.LPAExperiment},
		{[]string{"memory"}, bench.MemoryExperiment},
		{[]string{"complexity"}, bench.ComplexityExperiment},
		{[]string{"scaling"}, bench.ScalingExperiment},
		{[]string{"storage"}, bench.StorageExperiment},
	}
	var valid []string
	for _, e := range experiments {
		valid = append(valid, e.names...)
	}

	fs := flag.NewFlagSet("benchall", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expList = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(valid, ",")+" or 'all'")
		scale   = fs.Float64("scale", 1.0, "dataset size multiplier")
		repeat  = fs.Int("repeat", 3, "measurement repeats (paper uses 5)")
		threads = fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		maxThr  = fs.Int("maxthreads", 0, "strong-scaling sweep bound (0 = GOMAXPROCS)")
		out     = fs.String("o", "", "also write the report to this file")
		csvDir  = fs.String("csv", "", "also write one CSV per table into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		if e = strings.TrimSpace(strings.ToLower(e)); e != "" {
			want[e] = true
		}
	}
	all := want["all"]
	delete(want, "all")
	var runners []func(bench.Config) []bench.Table
	for _, e := range experiments {
		chosen := all
		for _, n := range e.names {
			chosen = chosen || want[n]
			delete(want, n)
		}
		if chosen {
			runners = append(runners, e.run)
		}
	}
	if len(want) > 0 || len(runners) == 0 {
		fmt.Fprintf(stderr, "benchall: -exp %q names an unknown experiment or none; valid: %s or all\n",
			*expList, strings.Join(valid, ","))
		return 2
	}

	cfg := bench.Config{
		Scale:      *scale,
		Repeats:    *repeat,
		Threads:    *threads,
		MaxThreads: *maxThr,
	}
	var report strings.Builder
	var tables []bench.Table
	start := time.Now()
	header := fmt.Sprintf("GVE-Leiden evaluation harness  (scale=%.2g repeats=%d threads=%d)\n",
		*scale, *repeat, *threads)
	fmt.Fprintln(stdout, header)
	report.WriteString(header + "\n")
	for _, runner := range runners {
		ts := runner(cfg)
		text := bench.RenderAll(ts)
		fmt.Fprint(stdout, text+"\n")
		report.WriteString(text + "\n")
		tables = append(tables, ts...)
	}
	footer := fmt.Sprintf("total harness time: %s", time.Since(start).Round(time.Millisecond))
	fmt.Fprintln(stdout, footer)
	report.WriteString(footer + "\n")

	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchall: writing %s: %v\n", *out, err)
			return 1
		}
	}
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, tables); err != nil {
			fmt.Fprintf(stderr, "benchall: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d CSV files to %s\n", len(tables), *csvDir)
	}
	return 0
}

func writeCSVs(dir string, tables []bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		data, err := t.CSV()
		if err != nil {
			return fmt.Errorf("rendering %s: %w", t.ID, err)
		}
		path := filepath.Join(dir, t.ID+".csv")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			return err
		}
	}
	return nil
}
