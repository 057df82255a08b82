package bench

import (
	"fmt"
	"runtime"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/order"
	"gveleiden/internal/parallel"
)

// CurvePoint is one (graph, thread-count) measurement of the
// strong-scaling sweep: best-of-repeats wall time, speedup relative to
// the 1-thread point of the same curve, the Figure-7a phase split, the
// local-moving work counters, and the pool scheduler counters of the
// best run.
type CurvePoint struct {
	Threads        int                      `json:"threads"`
	BestMs         float64                  `json:"best_ms"`
	Speedup        float64                  `json:"speedup"`
	Modularity     float64                  `json:"modularity"`
	Communities    int                      `json:"communities"`
	Passes         int                      `json:"passes"`
	Iterations     int                      `json:"move_iterations"`
	Scanned        int64                    `json:"scanned"`
	Pruned         int64                    `json:"pruned"`
	PruningHitRate float64                  `json:"pruning_hit_rate"`
	FlatScans      int64                    `json:"flat_scans"`
	Split          PhaseSplit               `json:"phase_split"`
	Pool           parallel.CounterSnapshot `json:"pool"`
}

// ScalingCurve is the strong-scaling sweep of one streamed graph class:
// the graph's size metadata, how long streamed generation and the
// degree-ordered reordering pass took, and one point per thread count.
type ScalingCurve struct {
	Class     string       `json:"class"`
	Vertices  int          `json:"vertices"`
	Arcs      int64        `json:"arcs"`
	Seed      uint64       `json:"seed"`
	GenMs     float64      `json:"gen_ms"`
	ReorderMs float64      `json:"reorder_ms"`
	Points    []CurvePoint `json:"points"`
}

// AblationRecord is one configuration of the move-phase kernel ablation
// at a fixed thread count: the full optimized path against runs with
// the tighter pruning and/or the flat-array accumulation disabled (the
// latter in all three kernels; see core.Options.DisableFlatScan). RelTime is
// this configuration's best time relative to the full path (>1 means
// the disabled optimization was paying for itself).
type AblationRecord struct {
	Class          string  `json:"class"`
	Config         string  `json:"config"`
	Threads        int     `json:"threads"`
	Vertices       int     `json:"vertices"`
	Arcs           int64   `json:"arcs"`
	BestMs         float64 `json:"best_ms"`
	RelTime        float64 `json:"rel_time"`
	Modularity     float64 `json:"modularity"`
	PruningHitRate float64 `json:"pruning_hit_rate"`
	FlatScans      int64   `json:"flat_scans"`
}

// scalingThreadCounts returns the 1..max sweep: powers of two plus the
// endpoint, so big machines get a log-spaced curve instead of dozens of
// near-identical points.
func scalingThreadCounts(maxThreads int) []int {
	if maxThreads < 2 {
		maxThreads = 2 // a 1-point curve has no scaling signal; 2 shows pool overhead even on one core
	}
	var out []int
	for t := 1; t < maxThreads; t *= 2 {
		out = append(out, t)
	}
	return append(out, maxThreads)
}

// buildScaled streams one generator class into a CSR and applies the
// hub-first degree reordering, timing both stages.
func buildScaled(name string, n int, seed uint64, pool *parallel.Pool, threads int) (*graph.CSR, float64, float64) {
	start := time.Now()
	g, _ := gen.BuildStreamedClass(name, n, seed, pool, threads)
	if g == nil {
		return nil, 0, 0
	}
	genMs := float64(time.Since(start).Microseconds()) / 1000

	start = time.Now()
	perm := order.ByDegreeDescCounting(g)
	rg, err := graph.PermuteWith(pool, threads, g, perm)
	if err != nil {
		return g, genMs, 0
	}
	return rg, genMs, float64(time.Since(start).Microseconds()) / 1000
}

// runScaledLeiden measures best-of-repeats Leiden on g with a dedicated
// pool, returning the best run's result and counter snapshot.
func runScaledLeiden(g *graph.CSR, opt core.Options, repeats int) (time.Duration, *core.Result, parallel.CounterSnapshot) {
	pool := parallel.NewPool(opt.Threads)
	defer pool.Close()
	opt.Pool = pool
	var (
		best     time.Duration
		res      *core.Result
		counters parallel.CounterSnapshot
	)
	for r := 0; r < repeats; r++ {
		pool.ResetCounters()
		start := time.Now()
		run := core.Leiden(g, opt)
		if d := time.Since(start); best == 0 || d < best {
			best = d
			res = run
			counters = pool.Counters()
		}
	}
	return best, res, counters
}

// StrongScaling sweeps thread counts over streamed graph classes at n
// vertices each: the BENCH_PR6.json experiment. classes selects from
// gen.StreamedClasses() by name (nil = all four). Speedups are relative
// to each curve's own 1-thread point.
func StrongScaling(n int, seed uint64, maxThreads, repeats int, classes []string) []ScalingCurve {
	if repeats < 1 {
		repeats = 1
	}
	if maxThreads <= 0 {
		maxThreads = runtime.NumCPU()
	}
	counts := scalingThreadCounts(maxThreads)
	want := map[string]bool{}
	for _, c := range classes {
		want[c] = true
	}

	buildPool := parallel.NewPool(counts[len(counts)-1])
	defer buildPool.Close()

	var out []ScalingCurve
	for _, cls := range gen.StreamedClasses() {
		if len(want) > 0 && !want[cls.Name] {
			continue
		}
		g, genMs, reorderMs := buildScaled(cls.Name, n, seed, buildPool, counts[len(counts)-1])
		curve := ScalingCurve{
			Class: cls.Name, Vertices: g.NumVertices(), Arcs: g.NumArcs(),
			Seed: seed, GenMs: genMs, ReorderMs: reorderMs,
		}
		var base time.Duration
		for _, t := range counts {
			opt := core.DefaultOptions()
			opt.Threads = t
			best, res, counters := runScaledLeiden(g, opt, repeats)
			if t == 1 {
				base = best
			}
			speedup := 0.0
			if base > 0 {
				speedup = float64(base) / float64(best)
			}
			mv, rf, ag, ot := res.Stats.PhaseSplit()
			curve.Points = append(curve.Points, CurvePoint{
				Threads:        t,
				BestMs:         float64(best.Microseconds()) / 1000,
				Speedup:        speedup,
				Modularity:     res.Modularity,
				Communities:    res.NumCommunities,
				Passes:         res.Passes,
				Iterations:     res.Stats.TotalIterations(),
				Scanned:        res.Stats.TotalScanned(),
				Pruned:         res.Stats.TotalPruned(),
				PruningHitRate: res.Stats.PruningHitRate(),
				FlatScans:      res.Stats.TotalFlatScans(),
				Split: PhaseSplit{
					Move: mv, Refine: rf, Aggregate: ag, Other: ot,
					FirstPass: res.Stats.FirstPassFraction(),
				},
				Pool: counters,
			})
		}
		out = append(out, curve)
	}
	return out
}

// MoveAblation times the move-phase kernels on streamed graphs with the
// tighter pruning and the flat-array scan individually and jointly
// disabled, at a fixed thread count — the speedup evidence for the
// hot-path kernels that does not depend on core count.
func MoveAblation(n int, seed uint64, threads, repeats int, classes []string) []AblationRecord {
	if repeats < 1 {
		repeats = 1
	}
	if threads <= 0 {
		threads = runtime.NumCPU()
	}
	want := map[string]bool{}
	for _, c := range classes {
		want[c] = true
	}
	configs := []struct {
		name            string
		noPrune, noFlat bool
	}{
		{"full", false, false},
		{"no-pruning", true, false},
		{"no-flatscan", false, true},
		{"no-both", true, true},
	}

	buildPool := parallel.NewPool(threads)
	defer buildPool.Close()

	var out []AblationRecord
	for _, cls := range gen.StreamedClasses() {
		if len(want) > 0 && !want[cls.Name] {
			continue
		}
		g, _, _ := buildScaled(cls.Name, n, seed, buildPool, threads)
		var full time.Duration
		for _, c := range configs {
			opt := core.DefaultOptions()
			opt.Threads = threads
			opt.DisablePruning = c.noPrune
			opt.DisableFlatScan = c.noFlat
			best, res, _ := runScaledLeiden(g, opt, repeats)
			if c.name == "full" {
				full = best
			}
			rel := 0.0
			if full > 0 {
				rel = float64(best) / float64(full)
			}
			out = append(out, AblationRecord{
				Class: cls.Name, Config: c.name, Threads: threads,
				Vertices: g.NumVertices(), Arcs: g.NumArcs(),
				BestMs:         float64(best.Microseconds()) / 1000,
				RelTime:        rel,
				Modularity:     res.Modularity,
				PruningHitRate: res.Stats.PruningHitRate(),
				FlatScans:      res.Stats.TotalFlatScans(),
			})
		}
	}
	return out
}

// ScalingExperiment is the benchall-facing strong-scaling table: a
// smaller corpus than the BENCH_PR6.json sweep (vertices scale with
// cfg.Scale from a 200k base) so the full harness stays interactive.
func ScalingExperiment(cfg Config) []Table {
	n := int(200_000 * cfg.Scale)
	if n < 10_000 {
		n = 10_000
	}
	curves := StrongScaling(n, 6, cfg.MaxThreads, cfg.Repeats, []string{"social", "road"})
	var rows [][]string
	for _, c := range curves {
		for _, p := range c.Points {
			rows = append(rows, []string{
				c.Class,
				fmt.Sprintf("%d", c.Vertices),
				fmt.Sprintf("%d", p.Threads),
				fmt.Sprintf("%.1f", p.BestMs),
				fmt.Sprintf("%.2f", p.Speedup),
				fmt.Sprintf("%.0f%%", p.Split.Move*100),
				fmt.Sprintf("%.2f", p.PruningHitRate),
				fmt.Sprintf("%d", p.FlatScans),
				fmt.Sprintf("%d", p.Pool.Steals),
			})
		}
	}
	return []Table{{
		ID:     "scaling",
		Title:  "Strong scaling: streamed classes, degree-reordered, 1..max threads",
		Header: []string{"class", "|V|", "threads", "best ms", "speedup", "move%", "prune-hit", "flat", "steals"},
		Rows:   rows,
	}}
}
