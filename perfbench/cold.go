package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gveleiden"
	"gveleiden/internal/graph"
	"gveleiden/internal/oracle"
	"gveleiden/internal/order"
	"gveleiden/internal/parallel"
	"gveleiden/internal/quality"
)

// coldSpec describes a cold-detection workload: a streamed graph class
// written once as a gvecsr container, then opened, verified, detected
// and mapped back to input ids by every op.
type coldSpec struct {
	name        string
	class       string
	n           int
	degreeOrder bool // store degree-ordered with the permutation section, as gveconvert -perm degree does
	setupReps   int
}

var (
	// Social: skewed degrees send most scans down the hashtable path, and
	// the move and aggregation phases dominate.
	coldSocial = coldSpec{name: "cold-social", class: "social", n: socialN, degreeOrder: true, setupReps: 3}
	// Road: degree ≈ 2 sends nearly every scan down the flat path, so a
	// hashtable change should not move it; many cheap passes expose
	// per-pass and allocation costs instead.
	coldRoad = coldSpec{name: "cold-road", class: "road", n: roadN, setupReps: 5}
)

// coldOp is one detection, timed from OpenGraphFile to the membership
// in input ids.
type coldOp struct {
	detect     float64
	modularity float64
	peakMB     float64 // resident high-water mark from the op's start to its result
	err        error

	openS, verifyS, runS, mapS float64
	stats                      gveleiden.Stats
	counters                   parallel.CounterSnapshot // traced ops only
	allocMB                    float64                  // traced ops only
}

func runCold(spec coldSpec, cfg runConfig) (*runOutput, error) {
	dir, err := os.MkdirTemp(workDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, spec.class+gveleiden.GraphFileExt)

	setup, vertices, arcs, fp, err := coldSetup(spec, cfg.seed, path)
	if err != nil {
		return nil, err
	}
	if err := checkFingerprints(spec.name, cfg.seed, map[string]string{"graph": fp}); err != nil {
		return nil, err
	}

	pool := gveleiden.NewPool(threads)
	defer pool.Close()
	opt := gveleiden.DefaultOptions()
	opt.Threads = threads
	opt.Pool = pool

	out := &runOutput{record: map[string]any{
		"vertices": vertices, "arcs": arcs, "fingerprint_graph": fp,
		"setup_s_samples": setup,
	}}
	warm := runColdOp(path, opt, pool, nil)
	out.attempted++
	if warm.err != nil {
		out.failed++
		logf("warm-up op: %v", warm.err)
	}

	dropSetup()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	gc0 := readGC()
	var ops, plain []coldOp // plain: a traced run's untraced ops, for the tracing overhead
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		r := rec
		if cfg.trace && i%2 == 1 {
			r = nil
		}
		op := runColdOp(path, opt, pool, r)
		// Collect the op's garbage outside the timed interval, so every op
		// starts from the same heap and meets its own collections at the
		// same points instead of inheriting the previous op's.
		runtime.GC()
		out.attempted++
		if op.err != nil {
			out.failed++
			logf("op %d: %v", i, op.err)
		}
		if op.detect == 0 {
			continue // failed before producing a result: nothing to time
		}
		if cfg.trace && r == nil {
			plain = append(plain, op)
		} else {
			ops = append(ops, op)
		}
	}
	gc1 := readGC()
	if len(ops) == 0 {
		return nil, fmt.Errorf("no op completed")
	}

	pick := func(f func(coldOp) float64) float64 { return median(values(ops, f)) }
	detect := func(o coldOp) float64 { return o.detect }
	out.record["ops"] = len(ops)
	out.record["op_s_samples"] = values(ops, detect)
	out.record["rss_reset"] = resetPeakRSS()
	out.e2e = map[string]float64{
		"op_s":        pick(detect),
		"modularity":  pick(func(o coldOp) float64 { return o.modularity }),
		"peak_rss_mb": pick(func(o coldOp) float64 { return o.peakMB }),
		"setup_s":     median(setup),
	}
	if !cfg.trace {
		return out, nil
	}

	// One single-thread op for the parallel speedup, outside the timed
	// phase.
	pool1 := gveleiden.NewPool(1)
	opt1 := opt
	opt1.Threads, opt1.Pool = 1, pool1
	solo := runColdOp(path, opt1, pool1, nil)
	pool1.Close()
	out.attempted++
	if solo.err != nil {
		out.failed++
		logf("single-thread op: %v", solo.err)
	}

	l := zeroLayers()
	runS := pick(func(o coldOp) float64 { return o.runS })
	l["gvecsr.open_s"] = pick(func(o coldOp) float64 { return o.openS })
	l["gvecsr.verify_s"] = pick(func(o coldOp) float64 { return o.verifyS })
	l["core.run_s"] = runS
	l["core.move_s"] = pick(func(o coldOp) float64 { return phases(o.stats).move })
	l["core.refine_s"] = pick(func(o coldOp) float64 { return phases(o.stats).refine })
	l["core.aggregate_s"] = pick(func(o coldOp) float64 { return phases(o.stats).aggregate })
	l["core.other_s"] = pick(func(o coldOp) float64 { return phases(o.stats).other })
	l["core.unphased_s"] = pick(func(o coldOp) float64 { return o.runS - phases(o.stats).total() })
	l["core.first_pass_share"] = pick(func(o coldOp) float64 { return o.stats.FirstPassFraction() })
	l["core.passes"] = pick(func(o coldOp) float64 { return float64(len(o.stats.Passes)) })
	l["core.iterations"] = pick(func(o coldOp) float64 { return float64(o.stats.TotalIterations()) })
	l["core.scanned"] = pick(func(o coldOp) float64 { return float64(o.stats.TotalScanned()) })
	l["core.moves"] = pick(func(o coldOp) float64 { return float64(o.stats.TotalMoves()) })
	l["core.pruned_share"] = pick(func(o coldOp) float64 { return o.stats.PruningHitRate() })
	l["core.flat_scan_share"] = pick(func(o coldOp) float64 {
		return ratio(float64(o.stats.TotalFlatScans()), float64(o.stats.TotalScanned()))
	})
	l["core.agg_occupancy"] = pick(func(o coldOp) float64 {
		if len(o.stats.Passes) == 0 {
			return 0
		}
		return o.stats.Passes[0].AggOccupancy
	})
	l["core.alloc_mb"] = pick(func(o coldOp) float64 { return o.allocMB })
	addPoolLayers(l, func(f func(parallel.CounterSnapshot) float64) float64 {
		return pick(func(o coldOp) float64 { return f(o.counters) })
	})
	if solo.err == nil {
		l["parallel.speedup"] = ratio(solo.runS, runS)
	}
	l["gc.cycles"] = float64(gc1.cycles - gc0.cycles)
	l["gc.pause_ms"] = (gc1.pauseSec - gc0.pauseSec) * 1e3
	l["loadgen.ops"] = float64(len(ops))
	named := func(o coldOp) float64 { return o.openS + o.verifyS + o.runS + o.mapS }
	l["trace.covered_share"] = pick(func(o coldOp) float64 { return named(o) / o.detect })
	l["trace.uncovered_s"] = pick(func(o coldOp) float64 { return o.detect - named(o) })
	if len(plain) > 0 {
		l["trace.overhead_share"] = pick(detect)/median(values(plain, detect)) - 1
	}
	out.layer = l
	out.spans = rec
	out.record["untraced_ops"] = len(plain)
	out.record["single_thread_run_s"] = solo.runS

	byName, _ := layerSelf(rec.snapshot(), "op")
	detectS := pick(detect)
	n := float64(len(ops))
	for name, d := range byName {
		if name == "op" || name == "check" {
			continue // benchmark glue and the untimed check
		}
		self := d.Seconds() / n
		out.breakdown = append(out.breakdown, layerShare{Layer: name, SelfS: self, Share: self / detectS})
	}
	for _, ph := range []struct {
		name string
		v    float64
	}{
		{"core.leiden/move", l["core.move_s"]},
		{"core.leiden/refine", l["core.refine_s"]},
		{"core.leiden/aggregate", l["core.aggregate_s"]},
		{"core.leiden/other", l["core.other_s"]},
		{"core.leiden/unphased", l["core.unphased_s"]},
		{"uncovered", l["trace.uncovered_s"]},
	} {
		out.breakdown = append(out.breakdown, layerShare{Layer: ph.name, SelfS: ph.v, Share: ph.v / detectS})
	}
	return out, nil
}

// coldSetup generates the workload's graph setupReps times, writing the
// container each time, and returns the set-up times, the input's size
// and its fingerprint. Every repetition must generate the same graph.
func coldSetup(spec coldSpec, seed uint64, path string) (setup []float64, vertices int, arcs int64, fp string, err error) {
	p := parallel.NewPool(threads)
	defer p.Close()
	for rep := 0; rep < spec.setupReps; rep++ {
		start := time.Now()
		g, err := generate(spec.class, spec.n, seed, p)
		if err != nil {
			return nil, 0, 0, "", err
		}
		stored := g
		var opts gveleiden.StorageOptions
		if spec.degreeOrder {
			perm := order.ByDegreeDescCounting(g)
			if stored, err = graph.PermuteWith(p, threads, g, perm); err != nil {
				return nil, 0, 0, "", err
			}
			opts.Permutation = perm
		}
		if err := gveleiden.SaveGraphFile(path, stored, opts); err != nil {
			return nil, 0, 0, "", err
		}
		setup = append(setup, time.Since(start).Seconds())
		f := graphFingerprint(g)
		if rep > 0 && f != fp {
			return nil, 0, 0, "", fmt.Errorf("set-up %d generated graph %s, set-up 0 generated %s", rep, f, fp)
		}
		fp, vertices, arcs = f, g.NumVertices(), g.NumArcs()
		g, stored = nil, nil
		runtime.GC()
	}
	return setup, vertices, arcs, fp, nil
}

// runColdOp runs one detection through the library's public calls and
// checks it after the timed interval. rec, when non-nil, records the op
// and a span around each call.
func runColdOp(path string, opt gveleiden.Options, pool *gveleiden.Pool, rec *recorder) (op coldOp) {
	root := rec.begin("op", 0, 0)
	id := rec.opOf(root)
	defer func() { rec.end(root, map[string]float64{"detect_s": op.detect}) }()

	resetPeakRSS()
	start := time.Now()
	s := rec.begin("gvecsr.open", root, id)
	f, err := gveleiden.OpenGraphFile(path)
	rec.end(s, nil)
	if err != nil {
		op.err = fmt.Errorf("open: %w", err)
		return op
	}
	defer f.Close()
	opened := time.Now()
	s = rec.begin("gvecsr.verify", root, id)
	g, err := f.Graph()
	rec.end(s, nil)
	if err != nil {
		op.err = fmt.Errorf("verify: %w", err)
		return op
	}
	verified := time.Now()
	var c0 parallel.CounterSnapshot
	var a0 gcSample
	if rec != nil {
		c0, a0 = pool.Counters(), readGC()
	}
	s = rec.begin("core.leiden", root, id)
	res := gveleiden.Leiden(g, opt)
	ran := time.Now()
	if rec != nil {
		op.counters = pool.Counters().Sub(c0)
		op.allocMB = float64(readGC().allocBytes-a0.allocBytes) / (1 << 20)
		rec.end(s, map[string]float64{
			"passes":     float64(res.Passes),
			"iterations": float64(res.Stats.TotalIterations()),
			"scanned":    float64(res.Stats.TotalScanned()),
			"flat_scans": float64(res.Stats.TotalFlatScans()),
			"moves":      float64(res.Stats.TotalMoves()),
			"regions":    float64(op.counters.Regions),
			"steals":     float64(op.counters.Steals),
			"alloc_mb":   op.allocMB,
		})
	}
	s = rec.begin("membership.map", root, id)
	membership := res.Membership
	perm, err := f.Permutation()
	if err == nil && perm != nil {
		membership = order.ApplyToMembership(perm, res.Membership)
	}
	rec.end(s, nil)
	end := time.Now()
	if err != nil {
		op.err = fmt.Errorf("permutation: %w", err)
		return op
	}
	op.detect = end.Sub(start).Seconds()
	op.peakMB = peakRSSMB()
	op.openS = opened.Sub(start).Seconds()
	op.verifyS = verified.Sub(opened).Seconds()
	op.runS = ran.Sub(verified).Seconds()
	op.mapS = end.Sub(ran).Seconds()
	op.modularity = res.Modularity
	op.stats = res.Stats

	s = rec.begin("check", root, id)
	op.err = checkCold(g, res, membership, pool)
	rec.end(s, nil)
	return op
}

// checkCold is the per-op correctness check: a dense valid partition in
// both numberings, no internally-disconnected community, and the
// reported modularity equal to a recomputation on the loaded graph.
func checkCold(g *graph.CSR, res *gveleiden.Result, membership []uint32, pool *parallel.Pool) error {
	r := &oracle.Report{}
	oracle.CheckPartition(r, g, res.Membership, true)
	oracle.CheckPartition(r, g, membership, true)
	if err := r.Err(); err != nil {
		return err
	}
	if d := quality.CountDisconnectedOn(pool, g, res.Membership, threads); d.Disconnected != 0 {
		return fmt.Errorf("%d of %d communities are internally disconnected", d.Disconnected, d.Communities)
	}
	if q := quality.Modularity(g, res.Membership); math.Abs(q-res.Modularity) > 1e-9 {
		return fmt.Errorf("reported modularity %.12f, recomputed %.12f", res.Modularity, q)
	}
	return nil
}

// phaseSplit is a run's phase time in seconds; other folds in the
// split and color sub-phases.
type phaseSplit struct{ move, refine, aggregate, other float64 }

func (p phaseSplit) total() float64 { return p.move + p.refine + p.aggregate + p.other }

func phases(s gveleiden.Stats) phaseSplit {
	mv, rf, ag, co, sp, ot := s.PhaseTotals()
	return phaseSplit{mv.Seconds(), rf.Seconds(), ag.Seconds(), (co + sp + ot).Seconds()}
}

// addPoolLayers fills the parallel.* metrics; agg reduces one counter
// over the ops.
func addPoolLayers(l map[string]float64, agg func(func(parallel.CounterSnapshot) float64) float64) {
	l["parallel.regions"] = agg(func(c parallel.CounterSnapshot) float64 { return float64(c.Regions) })
	l["parallel.spawn_regions"] = agg(func(c parallel.CounterSnapshot) float64 { return float64(c.SpawnRegions) })
	l["parallel.steals"] = agg(func(c parallel.CounterSnapshot) float64 { return float64(c.Steals) })
	l["parallel.steal_success"] = agg(func(c parallel.CounterSnapshot) float64 {
		return ratio(float64(c.Steals), float64(c.StealAttempts))
	})
}
