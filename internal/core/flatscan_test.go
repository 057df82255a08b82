package core

import (
	"math"
	"slices"
	"testing"

	"gveleiden/internal/color"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/hashtable"
)

// aggCopy is one aggregated graph copied out of a LevelEvent, which
// aliases workspace memory: the offsets and counts of the holey CSR and
// each super-vertex's written arcs, concatenated.
type aggCopy struct {
	offsets, counts, edges []uint32
	weights                []float32
}

func copyAggregated(a *graph.CSR) aggCopy {
	n := a.NumVertices()
	ac := aggCopy{offsets: slices.Clone(a.Offsets[:n+1]), counts: slices.Clone(a.Counts[:n])}
	for v := 0; v < n; v++ {
		es, ws := a.Neighbors(uint32(v))
		ac.edges = append(ac.edges, es...)
		ac.weights = append(ac.weights, ws...)
	}
	return ac
}

// diff describes the first difference between two aggregated graphs, or
// returns "" when they match arc for arc, weights bit for bit.
func (a aggCopy) diff(b aggCopy) string {
	switch {
	case !slices.Equal(a.offsets, b.offsets):
		return "offsets differ"
	case !slices.Equal(a.counts, b.counts):
		return "counts differ"
	case !slices.Equal(a.edges, b.edges):
		return "arc targets differ"
	}
	for i := range a.weights {
		if math.Float32bits(a.weights[i]) != math.Float32bits(b.weights[i]) {
			return "arc weights differ"
		}
	}
	return ""
}

// sorted returns a copy with each super-vertex's arcs sorted by target.
// At t>1 aggregate lists a community's members in the order the
// scheduler's atomic scatter placed them, so only the arc set of each
// super-vertex is reproducible, not its order.
func (a aggCopy) sorted() aggCopy {
	s := aggCopy{offsets: a.offsets, counts: a.counts, edges: slices.Clone(a.edges), weights: slices.Clone(a.weights)}
	lo := 0
	for _, k := range a.counts {
		hi := lo + int(k)
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		slices.SortFunc(idx, func(x, y int) int { return int(a.edges[x]) - int(a.edges[y]) })
		for i, j := range idx {
			s.edges[lo+i], s.weights[lo+i] = a.edges[j], a.weights[j]
		}
		lo = hi
	}
	return s
}

// flatRun is one run's result, hierarchy and aggregated levels.
type flatRun struct {
	res    *Result
	h      *Hierarchy
	levels []aggCopy
}

// dynInput is the one-batch input of the LeidenDynamicHierarchy runs.
type dynInput struct {
	g     *graph.CSR
	prev  []uint32
	delta Delta
}

// runFlat runs one entry point, copying every aggregated level through
// Options.Inspector. kind is "leiden", "hierarchy", "louvain" or
// "dynamic" (frontier mode over d).
func runFlat(g *graph.CSR, opt Options, kind string, d dynInput) flatRun {
	var r flatRun
	opt.Inspector = func(ev LevelEvent) { r.levels = append(r.levels, copyAggregated(ev.Aggregated)) }
	switch kind {
	case "leiden":
		r.res = Leiden(g, opt)
	case "hierarchy":
		r.res, r.h = LeidenHierarchy(g, opt)
	case "louvain":
		r.res = Louvain(g, opt)
	case "dynamic":
		r.res, r.h = LeidenDynamicHierarchy(d.g, d.prev, d.delta, DynamicFrontier, opt)
	}
	return r
}

// TestFlatScanChangesNoDecision pins the flat-array paths of all three
// kernels to the dense hashtable's: with DisableFlatScan off and on,
// every entry point must produce the same memberships, quality,
// hierarchy, per-pass counters (all but FlatScans, which counts the
// flat path) and, level by level, the same aggregated graph arc for
// arc — on all four graph classes, at t=1 and in deterministic mode at
// t=2, where each super-vertex's arcs are compared as a set (see
// aggCopy.sorted).
func TestFlatScanChangesNoDecision(t *testing.T) {
	web, _ := gen.WebGraph(1500, 10, 3)
	social, _ := gen.SocialNetwork(1500, 12, 10, 0.3, 5)
	road, _ := gen.RoadNetwork(1600, 7)
	kmer, _ := gen.KmerGraph(1500, 9)
	graphs := []struct {
		name string
		g    *graph.CSR
		flat bool // the first aggregation must send some community down the flat path
	}{{"web", web, false}, {"social", social, false}, {"road", road, true}, {"kmer", kmer, true}}
	variants := []struct {
		name string
		kind string
		set  func(*Options)
	}{
		{"leiden", "leiden", func(*Options) {}},
		{"hierarchy", "hierarchy", func(*Options) {}},
		{"louvain", "louvain", func(*Options) {}},
		{"dynamic", "dynamic", func(*Options) {}},
		{"random-refine", "leiden", func(o *Options) { o.Refinement = RefineRandom }},
	}
	for _, gc := range graphs {
		ins, del := graph.RandomDelta(gc.g, 40, 30, 11)
		next, err := graph.ApplyDelta(gc.g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		d := dynInput{g: next, prev: Leiden(gc.g, testOpts(1)).Membership, delta: Delta{Insertions: ins, Deletions: del}}
		for _, det := range []bool{false, true} {
			for _, v := range variants {
				opt := testOpts(1)
				name := gc.name + "/" + v.name
				if det {
					opt = testOpts(2)
					opt.Deterministic = true
					name += "/deterministic-t2"
				}
				v.set(&opt)
				got := runFlat(gc.g, opt, v.kind, d)
				opt.DisableFlatScan = true
				want := runFlat(gc.g, opt, v.kind, d)
				compareFlatRuns(t, name, det, want, got)
				if gc.flat && len(got.levels) > 0 && flatCommunities(got.levels[0]) == 0 {
					t.Errorf("%s: no first-level community fits the flat path", name)
				}
			}
		}
	}
}

// flatCommunities counts the super-vertices whose reserved slot, their
// community's total degree, is at most hashtable.FlatCap.
func flatCommunities(a aggCopy) int {
	k := 0
	for c := 0; c+1 < len(a.offsets); c++ {
		if a.offsets[c+1]-a.offsets[c] <= hashtable.FlatCap {
			k++
		}
	}
	return k
}

// compareFlatRuns is compareRuns without FlatScans, which must be zero
// with the flat paths off, plus the aggregated levels.
func compareFlatRuns(t *testing.T, name string, det bool, want, got flatRun) {
	t.Helper()
	compareRuns(t, name, det, false, want.res, got.res, want.h, got.h)
	for p, ps := range want.res.Stats.Passes {
		if ps.FlatScans != 0 {
			t.Errorf("%s: pass %d counted %d flat scans with the flat paths off", name, p, ps.FlatScans)
		}
	}
	if len(want.levels) != len(got.levels) {
		t.Fatalf("%s: %d aggregated levels, flat %d", name, len(want.levels), len(got.levels))
	}
	for l := range want.levels {
		w, f := want.levels[l], got.levels[l]
		if det {
			w, f = w.sorted(), f.sorted()
		}
		if d := w.diff(f); d != "" {
			t.Errorf("%s: aggregated level %d: %s", name, l, d)
		}
	}
}

// aggregateBoundaryGraph returns a graph and a dense membership of its
// 20 vertices into 18 communities. Community 0 = {0, 1} has total
// degree exactly FlatCap (a self-loop and a zero-weight arc included)
// and community 1 = {2, 3} exactly FlatCap+1; the other vertices are
// singletons labelled in descending id order, so community 0's targets
// are first touched in an order that is not their key order.
func aggregateBoundaryGraph() (*graph.CSR, []uint32) {
	b := graph.NewBuilder(20)
	b.AddEdge(0, 0, 2)
	b.AddEdge(0, 1, 1)
	for v := uint32(4); v <= 7; v++ {
		b.AddEdge(0, v, float32(v))
	}
	for v := uint32(8); v <= 12; v++ {
		w := float32(v) / 2
		if v == 10 {
			w = 0
		}
		b.AddEdge(1, v, w)
	}
	b.AddEdge(2, 2, 3)
	b.AddEdge(2, 3, 1)
	for v := uint32(13); v <= 16; v++ {
		b.AddEdge(2, v, 1.5)
	}
	for _, v := range []uint32{17, 18, 19, 4, 5, 6} {
		b.AddEdge(3, v, 2.5)
	}
	comm := []uint32{0, 0, 1, 1}
	for v := uint32(4); v < 20; v++ {
		comm = append(comm, 2+19-v)
	}
	return b.Build(), comm
}

// TestAggregateFlatBoundaries runs aggregate directly on communities at
// the flat gate's edge: total degree exactly FlatCap takes the flat
// path and FlatCap+1 the dense table, and both must write the arcs,
// order and weights the dense table writes with the flat paths off.
func TestAggregateFlatBoundaries(t *testing.T) {
	g, comm := aggregateBoundaryGraph()
	if d := g.Degree(0) + g.Degree(1); d != hashtable.FlatCap {
		t.Fatalf("community 0 has total degree %d, want FlatCap", d)
	}
	if d := g.Degree(2) + g.Degree(3); d != hashtable.FlatCap+1 {
		t.Fatalf("community 1 has total degree %d, want FlatCap+1", d)
	}
	nComms := int(slices.Max(comm)) + 1
	run := func(disable bool) aggCopy {
		opt := testOpts(1)
		opt.DisableFlatScan = disable
		ws := newWorkspace(g, opt.normalize())
		copy(ws.comm, comm)
		a, _, _ := ws.aggregate(g, nComms)
		return copyAggregated(a)
	}
	want, got := run(true), run(false)
	if d := want.diff(got); d != "" {
		t.Fatalf("flat aggregation: %s\n  dense %+v\n  flat  %+v", d, want, got)
	}
	if got.offsets[1]-got.offsets[0] != hashtable.FlatCap || got.offsets[2]-got.offsets[1] != hashtable.FlatCap+1 {
		t.Fatalf("slot widths %d, %d", got.offsets[1]-got.offsets[0], got.offsets[2]-got.offsets[1])
	}
	// Community 0 keeps its self-loop, its zero-weight arc (to the
	// singleton {10}, label 11) and its first-touch order.
	wantTargets := []uint32{0, 17, 16, 15, 14, 13, 12, 11, 10, 9}
	if !slices.Equal(got.edges[:got.counts[0]], wantTargets) {
		t.Fatalf("community 0's arcs %v, want %v", got.edges[:got.counts[0]], wantTargets)
	}
	if got.weights[0] != 2+2*1 || got.weights[7] != 0 {
		t.Fatalf("community 0's weights %v", got.weights[:got.counts[0]])
	}
}

// TestRefineFlatBoundaries runs the refinement kernels directly on a
// vertex of degree exactly FlatCap — a self-loop and six arcs that
// leave its community bound included — next to one of degree FlatCap+1,
// and compares the flat path with the dense table in both the
// asynchronous (t=1) and the colored (deterministic, t=2) kernel.
func TestRefineFlatBoundaries(t *testing.T) {
	b := graph.NewBuilder(40)
	b.AddEdge(0, 0, 4)
	for v := uint32(1); v <= 11; v++ {
		b.AddEdge(0, v, float32(v))
	}
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 2)
	b.AddEdge(20, 20, 1)
	for v := uint32(21); v <= 32; v++ {
		b.AddEdge(20, v, float32(33-v))
	}
	b.AddEdge(21, 22, 1)
	g := b.Build()
	if g.Degree(0) != hashtable.FlatCap || g.Degree(20) != hashtable.FlatCap+1 {
		t.Fatalf("degrees %d and %d", g.Degree(0), g.Degree(20))
	}
	// Move partition: vertex 0's bound holds 0-5, so its arcs to 6-11
	// leave it; vertex 20's bound holds 20-28.
	n := g.NumVertices()
	bounds := make([]uint32, n)
	for v := range bounds {
		switch {
		case v <= 5:
			bounds[v] = 0
		case v <= 11:
			bounds[v] = 6
		case v >= 20 && v <= 28:
			bounds[v] = 20
		default:
			bounds[v] = uint32(v)
		}
	}
	run := func(det, disable bool) ([]uint32, int64) {
		opt := testOpts(1)
		if det {
			opt = testOpts(2)
			opt.Deterministic = true
		}
		opt.DisableFlatScan = disable
		ws := newWorkspace(g, opt.normalize())
		if !ws.startPass(g, 0, nil) {
			t.Fatal("graph without edges")
		}
		copy(ws.comm[:n], bounds)
		ws.startRefine(n)
		var moved int64
		if det {
			moved = ws.refinePhaseColored(g, color.GreedyOn(ws.opt.Pool, g, ws.opt.Threads))
		} else {
			moved = ws.refinePhase(g)
		}
		return slices.Clone(ws.comm[:n]), moved
	}
	for _, det := range []bool{false, true} {
		want, wantMoved := run(det, true)
		got, gotMoved := run(det, false)
		if !slices.Equal(want, got) || wantMoved != gotMoved {
			t.Fatalf("deterministic %v: flat refinement %v (%d moved), dense %v (%d moved)", det, got, gotMoved, want, wantMoved)
		}
		if gotMoved == 0 {
			t.Fatalf("deterministic %v: no vertex moved", det)
		}
		if !det && (got[0] == 0 || bounds[got[0]] != bounds[0]) {
			t.Fatalf("vertex 0 joined sub-community %d; want a move within its bound", got[0])
		}
	}
}
