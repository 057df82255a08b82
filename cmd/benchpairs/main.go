// Command benchpairs compares two source trees on the repository
// benchmark by alternating pairs of runs: each pair runs
// `bash perfbench/run.sh` once in the parent's tree and once in the
// change's, with the same workload, seed and length, the parent first
// in even pairs and the change first in odd ones. On a host whose speed
// drifts, only pairs run back to back like this are evidence.
//
//	benchpairs -parent HEAD~1 -workload serve-swap -seed 1 -seconds 20 -pairs 10 -o BENCH_PR<N>.json
//
// The change is the tree at -change (default: the current directory,
// the repository root). The parent is the commit -parent names,
// extracted with `git archive` under the change's .bench_build/, so the
// repository's git metadata is left alone. Every run's reported metrics
// go into the output file, with its op_s samples (one per timed op, in
// order) and a summary per metric: each side's median and quartiles,
// and the pairs the change won in the direction BENCHMARK.json gives.
// An existing output file gets the new set of pairs appended, so one
// file can hold every workload and seed of a comparison. benchpairs
// edits nothing under perfbench/ and does not touch BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	parent := fs.String("parent", "", "commit of the parent tree (required)")
	change := fs.String("change", ".", "root of the change's tree")
	workload := fs.String("workload", "", "perfbench workload (required)")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "length of each run's timed phase")
	pairs := fs.Int("pairs", 10, "alternating parent/change pairs to run")
	trace := fs.Int("trace", 0, "1: traced runs reporting per-layer metrics")
	out := fs.String("o", "", "report file, appended to when it exists (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *workload == "" || *out == "" || *pairs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -parent REV -workload W -o FILE [-change DIR] [-seed N] [-seconds S] [-pairs N] [-trace 0|1]")
		return 2
	}
	if err := compare(*parent, *change, *workload, *seed, *seconds, *pairs, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		return 1
	}
	return 0
}

func compare(parentRev, changeDir, workload string, seed uint64, seconds, pairs int, trace bool, out string) error {
	better, err := directions(filepath.Join(changeDir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	sha, err := git(changeDir, "rev-parse", "--verify", parentRev+"^{commit}")
	if err != nil {
		return err
	}
	parentDir, err := extract(changeDir, sha)
	if err != nil {
		return err
	}
	changeID, err := git(changeDir, "describe", "--always", "--dirty")
	if err != nil {
		return err
	}
	rep, err := load(out)
	if err != nil {
		return err
	}
	s := pairSet{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Parent: sha, Change: changeID, Started: time.Now().UTC().Format(time.RFC3339),
	}
	args := []string{"perfbench/run.sh", "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(btoi(trace))}
	type side struct{ name, dir string }
	order := []side{{"parent", parentDir}, {"change", changeDir}}
	for p := 0; p < pairs; p++ {
		for i := range order {
			side := order[(i+p)%2]
			r := perfbench(side.dir, args)
			r.Pair, r.Side = p, side.name
			fmt.Fprintf(os.Stderr, "benchpairs: %s seed %d pair %d %s: %.1f s, %d metrics, %d of %d ops failed %s\n",
				workload, seed, p, side.name, r.WallS, len(r.Metrics), r.Failed, r.Attempted, r.Error)
			s.Runs = append(s.Runs, r)
		}
	}
	s.Summary = summarize(s.Runs, better)
	rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	rep.Sets = append(rep.Sets, s)
	return save(out, rep)
}

// perfbench runs the benchmark once in dir and parses what it prints.
func perfbench(dir string, args []string) runRecord {
	var stdout bytes.Buffer
	cmd := exec.Command("bash", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return runRecord{WallS: wall, Error: err.Error()}
	}
	r, err := parseRun(stdout.String())
	if err != nil {
		r.Error = err.Error()
	}
	r.WallS = wall
	return r
}

// parseRun reads a perfbench run's standard output: the metrics line it
// prints last, and the run record line before it ({"record":…}), whose
// op_s_samples it keeps when the record has them.
func parseRun(stdout string) (runRecord, error) {
	var r runRecord
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var final struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		return r, fmt.Errorf("parsing the metrics line: %w", err)
	}
	if final.Metrics == nil {
		return r, errors.New("the last line holds no metrics")
	}
	r.Attempted, r.Failed = final.Attempted, final.Failed
	r.Metrics = map[string]float64{}
	for name, m := range final.Metrics {
		r.Metrics[name] = m.Value
	}
	for _, line := range lines[:len(lines)-1] {
		if !strings.HasPrefix(line, `{"record":`) {
			continue
		}
		var rec struct {
			Record struct {
				OpSSamples []float64 `json:"op_s_samples"`
			} `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return r, fmt.Errorf("parsing the record line: %w", err)
		}
		r.OpSSamples = rec.Record.OpSSamples
	}
	return r, nil
}

// extract writes the tree of commit sha under changeDir's .bench_build
// once and returns its root.
func extract(changeDir, sha string) (string, error) {
	dir := filepath.Join(changeDir, ".bench_build", "benchpairs", "parent-"+sha[:12])
	if _, err := os.Stat(filepath.Join(dir, "perfbench", "run.sh")); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "-C", changeDir, "archive", sha)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin, archive.Stderr, untar.Stderr = pipe, os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := errors.Join(archive.Run(), untar.Wait()); err != nil {
		return "", fmt.Errorf("extracting %s: %w", sha, err)
	}
	return dir, nil
}

func git(dir string, args ...string) (string, error) {
	out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// directions reads which way each metric of BENCHMARK.json improves.
func directions(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		out[m.Name] = m.Better
	}
	return out, nil
}

func load(path string) (*report, error) {
	rep := &report{Tool: "benchpairs"}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func save(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
