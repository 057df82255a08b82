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
// the 1-thread point of the same curve, the move phase's share of the
// runtime (Figure 7a), the local-moving work counters, and the steals
// of the best run.
type CurvePoint struct {
	Threads        int
	BestMs         float64
	Speedup        float64
	Modularity     float64
	Communities    int
	MoveShare      float64
	PruningHitRate float64
	FlatScans      int64
	Steals         int64
}

// ScalingCurve is the strong-scaling sweep of one streamed graph class:
// the graph's size and one point per thread count.
type ScalingCurve struct {
	Class    string
	Vertices int
	Arcs     int64
	Points   []CurvePoint
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
// hub-first degree reordering.
func buildScaled(name string, n int, seed uint64, pool *parallel.Pool, threads int) *graph.CSR {
	g, _ := gen.BuildStreamedClass(name, n, seed, pool, threads)
	if g == nil {
		return nil
	}
	rg, err := graph.PermuteWith(pool, threads, g, order.ByDegreeDescCounting(g))
	if err != nil {
		return g
	}
	return rg
}

// runScaledLeiden measures best-of-repeats Leiden on g with a dedicated
// pool, returning the best run's result and steal count.
func runScaledLeiden(g *graph.CSR, opt core.Options, repeats int) (time.Duration, *core.Result, int64) {
	pool := parallel.NewPool(opt.Threads)
	defer pool.Close()
	opt.Pool = pool
	var (
		best   time.Duration
		res    *core.Result
		steals int64
	)
	for r := 0; r < repeats; r++ {
		pool.ResetCounters()
		start := time.Now()
		run := core.Leiden(g, opt)
		if d := time.Since(start); best == 0 || d < best {
			best = d
			res = run
			steals = pool.Counters().Steals
		}
	}
	return best, res, steals
}

// StrongScaling sweeps thread counts over streamed graph classes at n
// vertices each. classes selects from gen.StreamedClasses() by name
// (nil = all four). Speedups are relative to each curve's own 1-thread
// point.
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
		g := buildScaled(cls.Name, n, seed, buildPool, counts[len(counts)-1])
		curve := ScalingCurve{Class: cls.Name, Vertices: g.NumVertices(), Arcs: g.NumArcs()}
		var base time.Duration
		for _, t := range counts {
			opt := core.DefaultOptions()
			opt.Threads = t
			best, res, steals := runScaledLeiden(g, opt, repeats)
			if t == 1 {
				base = best
			}
			speedup := 0.0
			if base > 0 {
				speedup = float64(base) / float64(best)
			}
			move, _, _, _ := res.Stats.PhaseSplit()
			curve.Points = append(curve.Points, CurvePoint{
				Threads:        t,
				BestMs:         float64(best.Microseconds()) / 1000,
				Speedup:        speedup,
				Modularity:     res.Modularity,
				Communities:    res.NumCommunities,
				MoveShare:      move,
				PruningHitRate: res.Stats.PruningHitRate(),
				FlatScans:      res.Stats.TotalFlatScans(),
				Steals:         steals,
			})
		}
		out = append(out, curve)
	}
	return out
}

// ScalingExperiment is the benchall-facing strong-scaling table: two
// classes at a size that scales with cfg.Scale from a 200k base, so the
// full harness stays interactive.
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
				fmt.Sprintf("%.0f%%", p.MoveShare*100),
				fmt.Sprintf("%.2f", p.PruningHitRate),
				fmt.Sprintf("%d", p.FlatScans),
				fmt.Sprintf("%d", p.Steals),
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
