package bench

import (
	"fmt"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// DynamicExperiment sweeps update-batch sizes and compares a full
// static re-run against the naive-dynamic and dynamic-frontier
// variants (the paper's future-work direction, DESIGN.md §Extensions),
// and against a dynamic-frontier run resumed from the static run's
// dendrogram (core.LeidenDynamicFrom, the resident server's warm run).
// Batch sizes are fractions of |E|; each batch is half insertions,
// half deletions.
func DynamicExperiment(cfg Config) []Table {
	d := Registry(cfg.Scale)[7] // soc-livejournal analogue
	g, _ := Load(d)
	opt := core.DefaultOptions()
	opt.Threads = cfg.Threads
	prev, prevH := core.LeidenHierarchy(g, opt)
	variants := []struct {
		name string
		run  func(gNew *graph.CSR, delta core.Delta) []uint32
	}{
		{core.DynamicNaive.String(), func(gNew *graph.CSR, delta core.Delta) []uint32 {
			return core.LeidenDynamic(gNew, prev.Membership, delta, core.DynamicNaive, opt).Membership
		}},
		{core.DynamicFrontier.String(), func(gNew *graph.CSR, delta core.Delta) []uint32 {
			return core.LeidenDynamic(gNew, prev.Membership, delta, core.DynamicFrontier, opt).Membership
		}},
		{"resumed-frontier", func(gNew *graph.CSR, delta core.Delta) []uint32 {
			res, _ := core.LeidenDynamicFrom(gNew, prev.Membership, prevH, delta, core.DynamicFrontier, opt)
			return res.Membership
		}},
	}

	rows := make([][]string, 0, 12)
	for _, frac := range []float64{0.0001, 0.001, 0.01, 0.1} {
		m := int(float64(g.NumUndirectedEdges()) * frac / 2)
		if m < 1 {
			m = 1
		}
		ins, del := graph.RandomDelta(g, m, m, uint64(m))
		delta := core.Delta{Insertions: ins, Deletions: del}
		gNew, err := graph.ApplyDelta(g, ins, del)
		if err != nil {
			// RandomDelta only derives valid batches from g.
			panic(err)
		}

		tStatic, membStatic := Measure(cfg.Repeats, func() []uint32 {
			return core.Leiden(gNew, opt).Membership
		})
		qStatic := quality.Modularity(gNew, membStatic)

		for _, v := range variants {
			t, memb := Measure(cfg.Repeats, func() []uint32 { return v.run(gNew, delta) })
			q := quality.Modularity(gNew, memb)
			ds := quality.CountDisconnected(gNew, memb, cfg.Threads)
			rows = append(rows, []string{
				fmt.Sprintf("%.2f%%", frac*100),
				v.name,
				ms(t),
				fmt.Sprintf("%.2fx", float64(tStatic)/float64(t)),
				fmt.Sprintf("%+.4f", q-qStatic),
				fmt.Sprintf("%d", ds.Disconnected),
			})
		}
	}
	return []Table{{
		ID:     "dynamic",
		Title:  fmt.Sprintf("Dynamic Leiden on %s (static re-run as baseline)", d.Name),
		Header: []string{"batch (of |E|)", "mode", "time ms", "speedup", "ΔQ vs static", "disconnected"},
		Rows:   rows,
	}}
}

// AblationExperiment measures the contribution of individual design
// choices the paper calls out in §4.1: flag-based vertex pruning,
// threshold scaling and the aggregation tolerance (via the medium and
// heavy variants), and the dynamic-schedule grain; and of the
// flat-array scan for low-degree vertices.
func AblationExperiment(cfg Config) []Table {
	datasets := Registry(cfg.Scale)
	type config struct {
		name string
		mut  func(*core.Options)
	}
	configs := []config{
		{"baseline (all opts on)", func(o *core.Options) {}},
		{"no vertex pruning", func(o *core.Options) { o.DisablePruning = true }},
		{"no flat scan", func(o *core.Options) { o.DisableFlatScan = true }},
		{"no threshold scaling", func(o *core.Options) { o.Variant = core.VariantMedium }},
		{"no agg tolerance either", func(o *core.Options) { o.Variant = core.VariantHeavy }},
		{"grain 64", func(o *core.Options) { o.Grain = 64 }},
		{"grain 16384", func(o *core.Options) { o.Grain = 16384 }},
		{"random refinement", func(o *core.Options) { o.Refinement = core.RefineRandom }},
		{"deterministic (colored)", func(o *core.Options) { o.Deterministic = true }},
		{"multilevel final refine", func(o *core.Options) { o.FinalRefine = true }},
	}
	times := make([]time.Duration, len(configs))
	quals := make([]float64, len(configs))
	for _, d := range datasets {
		g, _ := Load(d)
		for ci, c := range configs {
			opt := core.DefaultOptions()
			opt.Threads = cfg.Threads
			c.mut(&opt)
			t, memb := Measure(cfg.Repeats, func() []uint32 {
				return core.Leiden(g, opt).Membership
			})
			times[ci] += t
			quals[ci] += quality.Modularity(g, memb)
		}
	}
	base := float64(times[0])
	rows := make([][]string, len(configs))
	for ci, c := range configs {
		rows[ci] = []string{
			c.name,
			ms(times[ci]),
			fmt.Sprintf("%.3f", float64(times[ci])/base),
			fmt.Sprintf("%.4f", quals[ci]/float64(len(datasets))),
		}
	}
	return []Table{{
		ID:     "ablation",
		Title:  "Ablation of §4.1 design choices (corpus totals)",
		Header: []string{"config", "total ms", "rel runtime", "avg modularity"},
		Rows:   rows,
	}}
}

// CPMExperiment runs the CPM objective across the corpus, reporting the
// community structure it finds next to modularity's — the alternative
// quality function of §2.
func CPMExperiment(cfg Config) []Table {
	datasets := Registry(cfg.Scale)
	rows := make([][]string, 0, len(datasets))
	for _, d := range datasets {
		g, _ := Load(d)
		mod := core.DefaultOptions()
		mod.Threads = cfg.Threads
		resM := core.Leiden(g, mod)

		cpm := core.DefaultOptions()
		cpm.Threads = cfg.Threads
		cpm.Objective = core.ObjectiveCPM
		// Scale γ with graph density: ~half the average intra-community
		// edge density works across classes.
		_, _, avg := g.DegreeStats()
		cpm.Resolution = avg / float64(g.NumVertices()) * 4
		resC := core.Leiden(g, cpm)
		dsC := quality.CountDisconnected(g, resC.Membership, cfg.Threads)
		rows = append(rows, []string{
			d.Name,
			fmt.Sprintf("%d", resM.NumCommunities),
			fmt.Sprintf("%d", resC.NumCommunities),
			fmt.Sprintf("%.4f", resC.Modularity),
			fmt.Sprintf("%.4f", resC.Quality),
			fmt.Sprintf("%d", dsC.Disconnected),
		})
	}
	return []Table{{
		ID:     "cpm",
		Title:  "CPM objective across the corpus (modularity run as reference)",
		Header: []string{"graph", "|Γ| mod", "|Γ| cpm", "Q of cpm part.", "CPM value", "disconnected"},
		Rows:   rows,
	}}
}
