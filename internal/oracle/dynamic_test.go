package oracle

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// Warm-start edge cases of core.LeidenDynamic, each held to the oracle
// invariants (valid dense partition, no internally-disconnected
// communities) and to quality parity with a from-scratch run.

const dynamicQualityBound = 0.05

func dynamicOpts() core.Options {
	opt := core.DefaultOptions()
	opt.Threads = 2
	return opt
}

// checkDynamicRun asserts the invariants and from-scratch parity for
// one LeidenDynamic result.
func checkDynamicRun(t *testing.T, name string, g *graph.CSR, res *core.Result) {
	t.Helper()
	r := &Report{}
	CheckPartition(r, g, res.Membership, true)
	CheckConnected(r, g, res.Membership, 2)
	if err := r.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fresh := core.Leiden(g, dynamicOpts())
	if res.Modularity < fresh.Modularity-dynamicQualityBound {
		t.Fatalf("%s: dynamic Q %.4f below from-scratch Q %.4f (bound %g)",
			name, res.Modularity, fresh.Modularity, dynamicQualityBound)
	}
}

// Empty prev: every vertex is "new", so the warm start degenerates to
// singletons — still a full, valid run.
func TestLeidenDynamicEmptyPrev(t *testing.T) {
	g, _ := gen.SocialNetwork(1000, 10, 8, 0.3, 51)
	ins, del := graph.RandomDelta(g, 20, 10, 52)
	gNew, err := graph.ApplyDelta(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	delta := core.Delta{Insertions: ins, Deletions: del}
	for _, mode := range []core.DynamicMode{core.DynamicNaive, core.DynamicFrontier} {
		res := core.LeidenDynamic(gNew, nil, delta, mode, dynamicOpts())
		checkDynamicRun(t, "empty-prev/"+mode.String(), gNew, res)
	}
}

// prev longer than the new vertex set: the delta shrank the graph (the
// bound > n branch at dynamic.go's warm-start loop). The surplus labels
// must be ignored without panicking or leaking out-of-range ids.
func TestLeidenDynamicPrevLongerThanVertexSet(t *testing.T) {
	gBig, _ := gen.SocialNetwork(1200, 10, 8, 0.3, 61)
	prev := core.Leiden(gBig, dynamicOpts()).Membership
	if len(prev) != gBig.NumVertices() {
		t.Fatal("sanity: prev length")
	}
	gSmall, _ := gen.SocialNetwork(900, 10, 8, 0.3, 62)
	ins, del := graph.RandomDelta(gSmall, 15, 10, 63)
	gNew, err := graph.ApplyDelta(gSmall, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	delta := core.Delta{Insertions: ins, Deletions: del}
	for _, mode := range []core.DynamicMode{core.DynamicNaive, core.DynamicFrontier} {
		res := core.LeidenDynamic(gNew, prev, delta, mode, dynamicOpts())
		if len(res.Membership) != gNew.NumVertices() {
			t.Fatalf("membership length %d, want %d", len(res.Membership), gNew.NumVertices())
		}
		checkDynamicRun(t, "long-prev/"+mode.String(), gNew, res)
	}
}

// A delta touching only out-of-range vertex ids: frontier marking must
// skip every edge of the batch (nothing to reprocess beyond the warm
// start) and the run must still satisfy all invariants.
func TestLeidenDynamicOutOfRangeDelta(t *testing.T) {
	g, _ := gen.SocialNetwork(800, 10, 8, 0.3, 71)
	prev := core.Leiden(g, dynamicOpts()).Membership
	n := uint32(g.NumVertices())
	delta := core.Delta{
		Insertions: []graph.Edge{{U: n, V: n + 1, W: 1}, {U: n + 5, V: n + 9, W: 2}},
		Deletions:  []graph.Edge{{U: n + 2, V: n + 3}},
	}
	for _, mode := range []core.DynamicMode{core.DynamicNaive, core.DynamicFrontier} {
		res := core.LeidenDynamic(g, prev, delta, mode, dynamicOpts())
		checkDynamicRun(t, "out-of-range/"+mode.String(), g, res)
	}
}

// LeidenDynamicHierarchy must deliver the same guarantees as
// LeidenDynamic plus a flattenable dendrogram whose composed depth-D
// view is a valid partition refining nothing it shouldn't.
func TestLeidenDynamicHierarchy(t *testing.T) {
	g, _ := gen.SocialNetwork(1000, 10, 8, 0.3, 81)
	prev := core.Leiden(g, dynamicOpts()).Membership
	ins, del := graph.RandomDelta(g, 20, 10, 82)
	gNew, err := graph.ApplyDelta(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	delta := core.Delta{Insertions: ins, Deletions: del}
	res, h := core.LeidenDynamicHierarchy(gNew, prev, delta, core.DynamicFrontier, dynamicOpts())
	checkDynamicRun(t, "hierarchy", gNew, res)
	if h == nil || h.Depth() < 1 {
		t.Fatalf("no dendrogram recorded (depth %d)", h.Depth())
	}
	for d := 1; d <= h.Depth(); d++ {
		flat, err := h.Flatten(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := quality.ValidatePartition(gNew, flat); err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
	}
}

// resumedRun runs core.LeidenDynamicFrom under the per-level checks and
// holds the final partition to validity, density and connectivity.
func resumedRun(t *testing.T, name string, g *graph.CSR, prev []uint32, prevH *core.Hierarchy, delta core.Delta, opt core.Options) (*core.Result, *core.Hierarchy) {
	t.Helper()
	r := &Report{}
	lc := &LevelChecks{R: r, Threads: 2}
	res, h := core.LeidenDynamicFrom(g, prev, prevH, delta, core.DynamicFrontier, lc.Attach(opt))
	CheckPartition(r, g, res.Membership, true)
	CheckConnected(r, g, res.Membership, 2)
	if err := r.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if lc.Levels == 0 {
		t.Fatalf("%s: no level was checked", name)
	}
	return res, h
}

// units returns the previous run's last-level super-vertices, the
// partition a resumed run inherits.
func units(t *testing.T, h *core.Hierarchy) []uint32 {
	t.Helper()
	u, err := h.Flatten(h.Depth() - 1)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// levelSize counts the vertices sharing v's community in level.
func levelSize(level core.Level, v uint32) int {
	size := 0
	for _, c := range level.Membership {
		if c == level.Membership[v] {
			size++
		}
	}
	return size
}

// pathCut runs a cold hierarchy on a path and returns it with a vertex
// i whose unit also holds i−1, i+1 and i+2, so that removing the edge
// {i, i+1} cuts the unit into two parts of at least two vertices.
func pathCut(t *testing.T, opt core.Options) (*graph.CSR, *core.Result, *core.Hierarchy, uint32) {
	t.Helper()
	g := gen.Path(400)
	res, h := core.LeidenHierarchy(g, opt)
	if h.Depth() < 2 {
		t.Fatalf("path dendrogram depth %d, want at least 2", h.Depth())
	}
	u := units(t, h)
	for i := 1; i+2 < len(u); i++ {
		if u[i-1] == u[i] && u[i] == u[i+1] && u[i+1] == u[i+2] {
			return g, res, h, uint32(i)
		}
	}
	t.Fatal("no unit of four consecutive path vertices")
	return nil, nil, nil, 0
}

// A deletion inside an inherited unit of a path cuts it in two. Its
// endpoints have nowhere better to go, so both halves keep the unit
// and the split must name them apart.
func TestResumeDeletionCutsUnit(t *testing.T) {
	opt := dynamicOpts()
	g, res, h, i := pathCut(t, opt)
	del := []graph.Edge{{U: i, V: i + 1}}
	gNew, err := graph.ApplyDelta(g, nil, del)
	if err != nil {
		t.Fatal(err)
	}
	_, hNew := resumedRun(t, "path-cut", gNew, res.Membership, h, core.Delta{Deletions: del}, opt)
	l0 := hNew.Levels[0]
	if l0.Membership[i] == l0.Membership[i+1] {
		t.Fatalf("vertices %d and %d share inherited unit %d across the deleted edge", i, i+1, l0.Membership[i])
	}
	if l0.Membership[i-1] != l0.Membership[i] || l0.Membership[i+1] != l0.Membership[i+2] {
		t.Fatal("the halves of the cut unit were not inherited")
	}
}

// An insertion whose negative weight cancels an edge inside a unit
// removes that edge without marking its endpoints (both lie in one
// community), so only the split keeps the inherited units connected.
func TestResumeNegativeInsertionCutsUnit(t *testing.T) {
	opt := dynamicOpts()
	g, res, h, i := pathCut(t, opt)
	ins := []graph.Edge{{U: i, V: i + 1, W: -1}}
	gNew, err := graph.ApplyDelta(g, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gNew.HasArc(i, i+1) {
		t.Fatal("sanity: the negative insertion did not cancel the edge")
	}
	_, hNew := resumedRun(t, "path-cancel", gNew, res.Membership, h, core.Delta{Insertions: ins}, opt)
	l0 := hNew.Levels[0]
	if l0.Membership[i] == l0.Membership[i+1] {
		t.Fatalf("vertices %d and %d share inherited unit %d across the cancelled edge", i, i+1, l0.Membership[i])
	}
	if l0.Membership[i-1] != l0.Membership[i] || l0.Membership[i+1] != l0.Membership[i+2] {
		t.Fatal("the halves of the cut unit were not inherited")
	}
}

// A heavy edge pulls a unit's smallest member into another community
// at pass 0: it becomes a singleton, and the rest of its unit, whose
// warm label is still the smallest member's, stays together.
func TestResumeSmallestMemberMoves(t *testing.T) {
	opt := dynamicOpts()
	g, _ := gen.SocialNetwork(2000, 10, 8, 0.3, 91)
	res, h := core.LeidenHierarchy(g, opt)
	u := units(t, h)
	size := map[uint32]int{}
	for _, c := range u {
		size[c]++
	}
	s := -1
	for v, c := range u {
		if size[c] >= 4 {
			s = v
			break
		}
	}
	if s < 0 {
		t.Fatal("no unit of four vertices")
	}
	x := -1
	for v, c := range res.Membership {
		if c != res.Membership[s] {
			x = v
			break
		}
	}
	ins := []graph.Edge{{U: uint32(s), V: uint32(x), W: 200}}
	gNew, err := graph.ApplyDelta(g, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, hNew := resumedRun(t, "smallest-moves", gNew, res.Membership, h, core.Delta{Insertions: ins}, opt)
	l0 := hNew.Levels[0]
	if levelSize(l0, uint32(s)) != 1 {
		t.Fatalf("the moved smallest member %d kept %d vertices in its inherited unit", s, levelSize(l0, uint32(s)))
	}
	rest := 0
	for v, c := range u {
		if v != s && c == u[s] && levelSize(l0, uint32(v)) > 1 {
			rest++
		}
	}
	if rest == 0 {
		t.Fatal("no other member of the moved vertex's unit was inherited")
	}
}

// New vertices have no unit: they start pass 0's refinement alone.
func TestResumeNewVertices(t *testing.T) {
	opt := dynamicOpts()
	g, _ := gen.SocialNetwork(1500, 10, 8, 0.3, 93)
	res, h := core.LeidenHierarchy(g, opt)
	n := uint32(g.NumVertices())
	ins := []graph.Edge{{U: n, V: 3, W: 1}, {U: n, V: 7, W: 1}, {U: n + 1, V: n, W: 1}, {U: n + 2, V: 11, W: 2}}
	gNew, err := graph.ApplyDelta(g, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, hNew := resumedRun(t, "new-vertices", gNew, res.Membership, h, core.Delta{Insertions: ins}, opt)
	if len(res2.Membership) != int(n)+3 {
		t.Fatalf("membership length %d, want %d", len(res2.Membership), n+3)
	}
	for v := n; v < n+3; v++ {
		if size := levelSize(hNew.Levels[0], v); size != 1 {
			t.Fatalf("new vertex %d shares its inherited unit with %d vertices", v, size-1)
		}
	}
}

// A final refinement moves single vertices after the dendrogram's
// last level, so a unit may straddle two published communities. The
// members outside the smallest member's community start alone, and
// the resumed run with FinalRefine on keeps every invariant.
func TestResumeFinalRefine(t *testing.T) {
	opt := dynamicOpts()
	opt.FinalRefine = true
	g, _ := gen.SocialNetwork(3000, 10, 8, 0.3, 95)
	res, h := core.LeidenHierarchy(g, opt)
	for b := 0; b < 3; b++ {
		ins, del := graph.RandomDelta(g, 40, 30, uint64(96+b))
		gNew, err := graph.ApplyDelta(g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		res, h = resumedRun(t, "final-refine", gNew, res.Membership, h, core.Delta{Insertions: ins, Deletions: del}, opt)
		g = gNew
	}
}

// Resumed runs keep every invariant under the options that change the
// passes around the inherited partition: the CPM objective (its size
// state is rolled up from the inherited units), one and two passes,
// refine-based labels, randomized refinement and the dense-table scans.
func TestResumeOptions(t *testing.T) {
	g0, _ := gen.SocialNetwork(2000, 10, 8, 0.3, 101)
	for _, tc := range []struct {
		name string
		set  func(*core.Options)
	}{
		{"cpm", func(o *core.Options) { o.Objective, o.Resolution = core.ObjectiveCPM, 0.01 }},
		{"one-pass", func(o *core.Options) { o.MaxPasses = 1 }},
		{"two-passes", func(o *core.Options) { o.MaxPasses = 2 }},
		{"refine-labels", func(o *core.Options) { o.Labels = core.LabelRefine }},
		{"random-refinement", func(o *core.Options) { o.Refinement = core.RefineRandom }},
		{"dense-tables", func(o *core.Options) { o.DisableFlatScan = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := dynamicOpts()
			tc.set(&opt)
			g := g0
			res, h := core.LeidenHierarchy(g, opt)
			if h.Depth() < 2 {
				t.Fatalf("cold dendrogram depth %d: the run would not resume", h.Depth())
			}
			for b := 0; b < 3; b++ {
				ins, del := graph.RandomDelta(g, 40, 30, uint64(110+b))
				gNew, err := graph.ApplyDelta(g, ins, del)
				if err != nil {
					t.Fatal(err)
				}
				res, h = resumedRun(t, tc.name, gNew, res.Membership, h, core.Delta{Insertions: ins, Deletions: del}, opt)
				g = gNew
			}
		})
	}
}

// equalRuns reports whether two runs published the same membership and
// the same dendrogram.
func equalRuns(a *core.Result, ah *core.Hierarchy, b *core.Result, bh *core.Hierarchy) bool {
	if !slices.Equal(a.Membership, b.Membership) || ah.Depth() != bh.Depth() {
		return false
	}
	for l := range ah.Levels {
		x, y := ah.Levels[l], bh.Levels[l]
		if x.Communities != y.Communities || x.Vertices != y.Vertices || !slices.Equal(x.Membership, y.Membership) {
			return false
		}
	}
	return true
}

// Without a usable dendrogram — none, one of a single level, one over
// another vertex count than prev's, or one a resumed run built — a
// resumed run refines from singletons: it is LeidenDynamicHierarchy.
func TestResumeFallbacks(t *testing.T) {
	opt := dynamicOpts()
	opt.Threads = 1 // one thread: a pure function of the input, so runs compare exactly
	g, _ := gen.SocialNetwork(1500, 10, 8, 0.3, 97)
	res, h := core.LeidenHierarchy(g, opt)
	other, _ := gen.SocialNetwork(1400, 10, 8, 0.3, 98)
	_, otherH := core.LeidenHierarchy(other, opt)
	ins, del := graph.RandomDelta(g, 30, 20, 99)
	gNew, err := graph.ApplyDelta(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	delta := core.Delta{Insertions: ins, Deletions: del}
	want, wantH := core.LeidenDynamicHierarchy(gNew, res.Membership, delta, core.DynamicFrontier, opt)
	if h.Depth() < 2 {
		t.Fatalf("sanity: cold depth %d", h.Depth())
	}
	for _, tc := range []struct {
		name string
		h    *core.Hierarchy
	}{
		{"nil", nil},
		{"one-level", &core.Hierarchy{Levels: h.Levels[:1]}},
		{"other-vertex-count", otherH},
	} {
		got, gotH := resumedRun(t, tc.name, gNew, res.Membership, tc.h, delta, opt)
		if !equalRuns(got, gotH, want, wantH) {
			t.Errorf("%s: the fallback differs from LeidenDynamicHierarchy", tc.name)
		}
	}
	// The same input with the dendrogram resumes: a shallower run.
	resumed, resumedH := resumedRun(t, "resumed", gNew, res.Membership, h, delta, opt)
	if resumedH.Levels[0].Communities >= wantH.Levels[0].Communities {
		t.Errorf("resumed level 0 holds %d units, no fewer than the %d refined from singletons",
			resumedH.Levels[0].Communities, wantH.Levels[0].Communities)
	}
	// A resumed run's dendrogram is not resumed from: the next run
	// refines from singletons, and the one after it resumes again.
	ins, del = graph.RandomDelta(gNew, 30, 20, 100)
	gNext, err := graph.ApplyDelta(gNew, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	delta = core.Delta{Insertions: ins, Deletions: del}
	want, wantH = core.LeidenDynamicHierarchy(gNext, resumed.Membership, delta, core.DynamicFrontier, opt)
	got, gotH := resumedRun(t, "inherited", gNext, resumed.Membership, resumedH, delta, opt)
	if !equalRuns(got, gotH, want, wantH) {
		t.Errorf("inherited: the run from a resumed dendrogram differs from LeidenDynamicHierarchy")
	}
	ins, del = graph.RandomDelta(gNext, 30, 20, 101)
	gLast, err := graph.ApplyDelta(gNext, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	delta = core.Delta{Insertions: ins, Deletions: del}
	_, wantH = core.LeidenDynamicHierarchy(gLast, got.Membership, delta, core.DynamicFrontier, opt)
	_, lastH := resumedRun(t, "resumed again", gLast, got.Membership, gotH, delta, opt)
	if lastH.Levels[0].Communities >= wantH.Levels[0].Communities {
		t.Errorf("after a run from singletons, level 0 holds %d units, no fewer than the %d refined from singletons",
			lastH.Levels[0].Communities, wantH.Levels[0].Communities)
	}
}

// A resumed run in deterministic mode is a pure function of its input:
// the same membership and dendrogram at 1, 2 and 7 threads.
func TestResumeDeterministicAcrossThreads(t *testing.T) {
	var ref *core.Result
	var refH *core.Hierarchy
	for _, threads := range []int{1, 2, 7} {
		opt := dynamicOpts()
		opt.Deterministic = true
		opt.Threads = threads
		g, _ := gen.KmerGraph(6000, 3)
		res, h := core.LeidenHierarchy(g, opt)
		for b := 0; b < 3; b++ {
			ins, del := graph.RandomDelta(g, 40, 40, uint64(100+b))
			gNew, err := graph.ApplyDelta(g, ins, del)
			if err != nil {
				t.Fatal(err)
			}
			res, h = resumedRun(t, "deterministic", gNew, res.Membership, h, core.Delta{Insertions: ins, Deletions: del}, opt)
			g = gNew
		}
		if ref == nil {
			ref, refH = res, h
		} else if !equalRuns(res, h, ref, refH) {
			t.Fatalf("deterministic resumed chain differs at %d threads", threads)
		}
	}
}

// chainMargin bounds how far a resumed chain may end below the chain
// of warm runs that refine pass 0 from singletons over the same
// batches. Resuming from every run's dendrogram, each patching the
// last, ended 0.007–0.010 below on k-mer, web and road and 0.032 below
// on social after 60 batches at one thread; resuming only from a
// dendrogram refined from singletons ends within 0.0035 on all four.
const chainMargin = 0.005

// TestResumeChain runs the warm-versus-cold differential of a
// long-running server at one thread, so every figure reproduces: a
// seeded chain of batches, each run resumed from the previous run's
// dendrogram under the per-level checks and the final-partition
// checks, beside the chain of LeidenDynamicHierarchy runs over the same
// batches and a cold run on the final graph. The resumed chain must
// end within chainMargin of the LeidenDynamicHierarchy chain. Against
// the cold run it only logs: on web both warm chains end about 0.0045
// below it, and a single cold run is a noisy reference at this size
// (EXPERIMENTS.md).
func TestResumeChain(t *testing.T) {
	batches := 60
	if testing.Short() {
		batches = 8
	}
	const n = 20000
	web, _ := gen.WebGraph(n, 10, 21)
	social, _ := gen.SocialNetwork(n, 10, 16, 0.3, 22)
	road, _ := gen.RoadNetwork(n, 23)
	kmer, _ := gen.KmerGraph(n, 24)
	for _, gc := range []struct {
		name string
		g    *graph.CSR
	}{{"kmer", kmer}, {"web", web}, {"social", social}, {"road", road}} {
		t.Run(gc.name, func(t *testing.T) {
			opt := dynamicOpts()
			opt.Threads = 1
			g := gc.g
			res, h := core.LeidenHierarchy(g, opt)
			warm := res
			for b := 0; b < batches; b++ {
				ins, del := graph.RandomDelta(g, 100, 100, uint64(1000*b+7))
				gNew, err := graph.ApplyDelta(g, ins, del)
				if err != nil {
					t.Fatal(err)
				}
				delta := core.Delta{Insertions: ins, Deletions: del}
				res, h = resumedRun(t, gc.name, gNew, res.Membership, h, delta, opt)
				warm, _ = core.LeidenDynamicHierarchy(gNew, warm.Membership, delta, core.DynamicFrontier, opt)
				g = gNew
			}
			cold := core.Leiden(g, opt)
			t.Logf("%s after %d batches: resumed Q %.5f, LeidenDynamicHierarchy chain %.5f (%+.5f), cold Q %.5f (%+.5f), depth %d",
				gc.name, batches, res.Modularity, warm.Modularity, res.Modularity-warm.Modularity,
				cold.Modularity, res.Modularity-cold.Modularity, h.Depth())
			if res.Modularity < warm.Modularity-chainMargin {
				t.Errorf("%s: resumed chain Q %.5f, more than %.3f below the LeidenDynamicHierarchy chain's %.5f",
					gc.name, res.Modularity, chainMargin, warm.Modularity)
			}
		})
	}
}

// dynamicChainDigest hashes everything but the timings of a cold
// hierarchy run and four chained LeidenDynamicHierarchy runs, in both
// warm-start modes: memberships, modularity, dendrogram levels and the
// per-pass counters (ΔQ at one thread only).
func dynamicChainDigest(g *graph.CSR, opt core.Options) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	record := func(res *core.Result, hier *core.Hierarchy) {
		put(uint64(res.NumCommunities), math.Float64bits(res.Modularity))
		for _, c := range res.Membership {
			put(uint64(c))
		}
		for _, l := range hier.Levels {
			put(uint64(l.Communities), uint64(l.Vertices))
			for _, c := range l.Membership {
				put(uint64(c))
			}
		}
		for _, p := range res.Stats.Passes {
			put(uint64(p.Vertices), uint64(p.Arcs), uint64(p.MoveIterations), uint64(p.Scanned),
				uint64(p.Pruned), uint64(p.FlatScans), uint64(p.Moves),
				uint64(p.RefineMoves), uint64(p.Communities), math.Float64bits(p.AggOccupancy))
			if opt.Threads == 1 {
				// Σ' is summed by atomic adds in whatever order the
				// threads take, so ΔQ's low bits vary beyond one thread.
				put(math.Float64bits(p.DeltaQ))
			}
			for _, m := range p.IterMoves {
				put(uint64(m))
			}
		}
	}
	res, hier := core.LeidenHierarchy(g, opt)
	record(res, hier)
	for _, mode := range []core.DynamicMode{core.DynamicNaive, core.DynamicFrontier} {
		cur, prev := g, res.Membership
		for b := 0; b < 4; b++ {
			ins, del := graph.RandomDelta(cur, 40, 30, uint64(200+b))
			next, err := graph.ApplyDelta(cur, ins, del)
			if err != nil {
				panic(err)
			}
			r, rh := core.LeidenDynamicHierarchy(next, prev, core.Delta{Insertions: ins, Deletions: del}, mode, opt)
			record(r, rh)
			cur, prev = next, r.Membership
		}
	}
	return h.Sum64()
}

// TestLeidenDynamicHierarchyUnchanged pins LeidenDynamicHierarchy, the
// path that refines pass 0 from singletons, to the digest of its
// output before resumed runs existed: at one thread and in
// deterministic mode at two, on the k-mer and social classes.
func TestLeidenDynamicHierarchyUnchanged(t *testing.T) {
	kmer, _ := gen.KmerGraph(3000, 5)
	social, _ := gen.SocialNetwork(3000, 10, 8, 0.3, 6)
	for _, tc := range []struct {
		name string
		g    *graph.CSR
		det  bool
		want uint64
	}{
		{"kmer/t1", kmer, false, 0xb2302afc44596f9f},
		{"kmer/det-t2", kmer, true, 0xad0da1a9dc4df426},
		{"social/t1", social, false, 0x1229143dad669973},
		{"social/det-t2", social, true, 0x6aa5aac89c34fc11},
	} {
		opt := dynamicOpts()
		opt.Threads = 1
		if tc.det {
			opt.Deterministic, opt.Threads = true, 2
		}
		if got := dynamicChainDigest(tc.g, opt); got != tc.want {
			t.Errorf("%s: digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
