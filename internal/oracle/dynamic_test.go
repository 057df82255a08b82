package oracle

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
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
// another vertex count than prev's, or one that ends a cycle of resumed
// runs — a resumed run refines from singletons: it is
// LeidenDynamicHierarchy.
func TestResumeFallbacks(t *testing.T) {
	opt := dynamicOpts()
	opt.Threads = 1 // one thread: a pure function of the input, so runs compare exactly
	g, _ := gen.SocialNetwork(1500, 10, 8, 0.3, 97)
	res, h := core.LeidenHierarchy(g, opt)
	other, _ := gen.SocialNetwork(1400, 10, 8, 0.3, 98)
	_, otherH := core.LeidenHierarchy(other, opt)
	gNew, delta := randomBatch(t, g, 30, 20, 99)
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
	if !resumedH.Inherited() || resumedH.Levels[0].Communities >= wantH.Levels[0].Communities {
		t.Errorf("resumed (inherited %v): level 0 holds %d units, no fewer than the %d refined from singletons",
			resumedH.Inherited(), resumedH.Levels[0].Communities, wantH.Levels[0].Communities)
	}
	// A once-resumed run's dendrogram is resumed from too.
	gNext, delta := randomBatch(t, gNew, 30, 20, 100)
	_, wantH = core.LeidenDynamicHierarchy(gNext, resumed.Membership, delta, core.DynamicFrontier, opt)
	twice, twiceH := resumedRun(t, "resumed twice", gNext, resumed.Membership, resumedH, delta, opt)
	if !twiceH.Inherited() || twiceH.Levels[0].Communities >= wantH.Levels[0].Communities {
		t.Errorf("resumed twice (inherited %v): level 0 holds %d units, no fewer than the %d refined from singletons",
			twiceH.Inherited(), twiceH.Levels[0].Communities, wantH.Levels[0].Communities)
	}
	// A twice-resumed run's dendrogram ends the cycle: the next run
	// refines from singletons. Whether the one after it resumes again
	// depends on that run's gain (TestResumeGainRule).
	gThird, delta := randomBatch(t, gNext, 30, 20, 101)
	want, wantH = core.LeidenDynamicHierarchy(gThird, twice.Membership, delta, core.DynamicFrontier, opt)
	got, gotH := resumedRun(t, "after two resumed", gThird, twice.Membership, twiceH, delta, opt)
	if gotH.Inherited() || !equalRuns(got, gotH, want, wantH) {
		t.Errorf("after two resumed: the run differs from LeidenDynamicHierarchy")
	}
}

// randomBatch applies graph.RandomDelta's batch of nIns insertions and
// nDel deletions to g and returns the new graph with the batch.
func randomBatch(t *testing.T, g *graph.CSR, nIns, nDel int, seed uint64) (*graph.CSR, core.Delta) {
	t.Helper()
	ins, del := graph.RandomDelta(g, nIns, nDel, seed)
	gNew, err := graph.ApplyDelta(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	return gNew, core.Delta{Insertions: ins, Deletions: del}
}

// A chain resumes twice before it refines from singletons, and the
// second resumed run inherits the first one's Levels[0]: the units it
// inherited, less its movers and new vertices, split into connected
// components. So units only get finer between full runs: every unit of
// the second run that holds only vertices the first run knew lies
// inside one of the first run's units, and the second run still
// starts from fewer units than a run from singletons refines. The third
// run is LeidenDynamicHierarchy.
func TestResumeUnitsOnlyGetFiner(t *testing.T) {
	opt := dynamicOpts()
	opt.Threads = 1 // one thread: a pure function of the input, so runs compare exactly
	g, _ := gen.KmerGraph(6000, 7)
	res, h := core.LeidenHierarchy(g, opt)
	// Each batch also adds two vertices, which start in units of their
	// own; the next run knows them.
	batch := func(g *graph.CSR, seed uint64) (*graph.CSR, core.Delta) {
		g, d := randomBatch(t, g, 60, 60, seed)
		u := uint32(g.NumVertices())
		grow := []graph.Edge{{U: u, V: 5, W: 1}, {U: u, V: 6, W: 1}, {U: u + 1, V: u, W: 1}}
		g, err := graph.ApplyDelta(g, grow, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.Insertions = append(d.Insertions, grow...)
		return g, d
	}
	g1, d1 := batch(g, 201)
	r1, h1 := resumedRun(t, "first resumed", g1, res.Membership, h, d1, opt)
	g2, d2 := batch(g1, 202)
	r2, h2 := resumedRun(t, "second resumed", g2, r1.Membership, h1, d2, opt)
	if !h1.Inherited() || !h2.Inherited() {
		t.Fatalf("runs after a cold one resumed %v, %v; want both", h1.Inherited(), h2.Inherited())
	}

	old := h1.Levels[0].Vertices
	l1, l2 := h1.Levels[0].Membership, h2.Levels[0].Membership
	holdsNew := map[uint32]bool{}
	for v := old; v < len(l2); v++ {
		holdsNew[l2[v]] = true
	}
	within := map[uint32]uint32{} // second run's unit → the first run's unit around it
	for v := 0; v < old; v++ {
		u := l2[v]
		if holdsNew[u] {
			continue
		}
		if w, ok := within[u]; ok && w != l1[v] {
			t.Fatalf("the second run's unit %d spans the first run's units %d and %d", u, w, l1[v])
		}
		within[u] = l1[v]
	}
	_, refH := core.LeidenDynamicHierarchy(g2, r1.Membership, d2, core.DynamicFrontier, opt)
	if h2.Levels[0].Communities >= refH.Levels[0].Communities {
		t.Errorf("the second resumed run inherits %d units, no fewer than the %d refined from singletons",
			h2.Levels[0].Communities, refH.Levels[0].Communities)
	}
	t.Logf("level-0 units: first resumed %d, second %d, refined from singletons %d",
		h1.Levels[0].Communities, h2.Levels[0].Communities, refH.Levels[0].Communities)

	g3, d3 := batch(g2, 203)
	want, wantH := core.LeidenDynamicHierarchy(g3, r2.Membership, d3, core.DynamicFrontier, opt)
	got, gotH := resumedRun(t, "third", g3, r2.Membership, h2, d3, opt)
	if gotH.Inherited() || !equalRuns(got, gotH, want, wantH) {
		t.Error("the run after two resumed ones differs from LeidenDynamicHierarchy")
	}
}

// gain is what a run's move phases raised modularity by over its warm
// start: the summed PassStats.DeltaQ the dendrogram records.
func gain(res *core.Result) float64 {
	var dq float64
	for _, p := range res.Stats.Passes {
		dq += p.DeltaQ
	}
	return dq
}

// A run from singletons that gains 0.005 or more over its warm start
// (core's resumeGain) shows a partition still climbing, as a chain
// does for a few runs after a cold start on the social class, so the
// next run refines from singletons too: it is LeidenDynamicHierarchy.
// One that gains less is followed by a resumed run. On this chain the
// third run, the first from singletons, gains about twice that and the
// fourth a tenth of it, so the runs go resumed, resumed, full, full,
// resumed.
func TestResumeGainRule(t *testing.T) {
	opt := dynamicOpts()
	opt.Threads = 1 // one thread: a pure function of the input, so runs compare exactly
	g, _ := gen.SocialNetwork(5000, 10, 16, 0.3, 5)
	res, h := core.LeidenHierarchy(g, opt)
	for b, wantResumed := range []bool{true, true, false, false, true} {
		gNew, delta := randomBatch(t, g, 30, 30, uint64(50+b))
		want, wantH := core.LeidenDynamicHierarchy(gNew, res.Membership, delta, core.DynamicFrontier, opt)
		prevGain := 0.0
		if !h.Inherited() && b > 0 {
			prevGain = gain(res)
		}
		got, gotH := resumedRun(t, fmt.Sprintf("run %d", b), gNew, res.Membership, h, delta, opt)
		if gotH.Inherited() != wantResumed {
			t.Fatalf("run %d (the last run from singletons gained %.5f): resumed %v, want %v", b, prevGain, gotH.Inherited(), wantResumed)
		}
		if !wantResumed && !equalRuns(got, gotH, want, wantH) {
			t.Errorf("run %d differs from LeidenDynamicHierarchy", b)
		}
		t.Logf("run %d: resumed %v, gain %.5f", b, gotH.Inherited(), gain(got))
		g, res, h = gNew, got, gotH
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
// on social after 60 batches at one thread. With one run in K refining
// from singletons and the K−1 after it resuming, each from the last
// one's dendrogram, the worst end gap over the four classes was:
//
//	K        2×10⁴, 4 seeds  10⁵      2×10⁴, two threads
//	2        −0.0033         −0.0001  −0.0021
//	3        −0.0014         −0.0003  −0.0028
//	4        −0.0015         −0.0004  −0.0046
//	6        −0.0084         −0.0010  −0.0033
//	8        −0.0039         −0.0012  −0.0068
//	never    −0.0317         −0.0182  −0.0161
//
// K = 3 alone lags while a chain climbs from a poor cold partition: on
// social the short chain of 8 batches ended 0.0115 below. So
// core.LeidenDynamicFrom also refines from singletons after a run from
// singletons that gained 0.005 or more. Worst gap over the four
// classes and four seeds at one thread, after 8 batches, after 60, and
// over batches 8 to 60:
//
//	rule            8        60       8–60     full runs of 60
//	K = 2           −0.0021  −0.0033  −0.0039  30
//	K = 3           −0.0115  −0.0018  −0.0115  20
//	K = 3 and gain  −0.0017  −0.0026  −0.0034  20–22
//
// At two threads (one unseeded run each) the same columns read
// −0.0059, −0.0031 and −0.0062 for K = 2, and −0.0163, −0.0034 and
// −0.0179 with the gain rule, both on social (EXPERIMENTS.md).
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
// (EXPERIMENTS.md). The graphs have 2×10⁴ vertices; GVE_CHAIN_SMOKE=1
// adds the same chains at 10⁵ vertices (subtests named class-100000),
// about 40 s more for the four classes on a 2-core x86 host.
func TestResumeChain(t *testing.T) {
	batches := 60
	if testing.Short() {
		batches = 8
	}
	sizes := []int{20000}
	if os.Getenv("GVE_CHAIN_SMOKE") != "" {
		sizes = append(sizes, 100000)
	}
	for _, n := range sizes {
		web, _ := gen.WebGraph(n, 10, 21)
		social, _ := gen.SocialNetwork(n, 10, 16, 0.3, 22)
		road, _ := gen.RoadNetwork(n, 23)
		kmer, _ := gen.KmerGraph(n, 24)
		for _, gc := range []struct {
			name string
			g    *graph.CSR
		}{{"kmer", kmer}, {"web", web}, {"social", social}, {"road", road}} {
			name := gc.name
			if n != sizes[0] {
				name = fmt.Sprintf("%s-%d", gc.name, n)
			}
			t.Run(name, func(t *testing.T) {
				opt := dynamicOpts()
				opt.Threads = 1
				g := gc.g
				res, h := core.LeidenHierarchy(g, opt)
				warm := res
				for b := 0; b < batches; b++ {
					gNew, delta := randomBatch(t, g, 100, 100, uint64(1000*b+7))
					res, h = resumedRun(t, name, gNew, res.Membership, h, delta, opt)
					warm, _ = core.LeidenDynamicHierarchy(gNew, warm.Membership, delta, core.DynamicFrontier, opt)
					g = gNew
				}
				cold := core.Leiden(g, opt)
				t.Logf("%s after %d batches: resumed Q %.5f, LeidenDynamicHierarchy chain %.5f (%+.5f), cold Q %.5f (%+.5f), depth %d",
					name, batches, res.Modularity, warm.Modularity, res.Modularity-warm.Modularity,
					cold.Modularity, res.Modularity-cold.Modularity, h.Depth())
				if res.Modularity < warm.Modularity-chainMargin {
					t.Errorf("%s: resumed chain Q %.5f, more than %.3f below the LeidenDynamicHierarchy chain's %.5f",
						name, res.Modularity, chainMargin, warm.Modularity)
				}
			})
		}
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
