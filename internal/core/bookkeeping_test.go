package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gveleiden/internal/color"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
)

// This file pins each step of a pass's bookkeeping to the form it
// replaced, kept here as a reference: renumber against the anchor
// renumber, the per-vertex move labels against the per-community ones,
// the swept vertex weights against K' from aggregation, the atomic
// degree sums against the member-list sums, and the old pass loop's
// epilogue against the dense one.

// refineKernels are the three refinement kernels whose labelings the
// anchor renumber relies on.
var refineKernels = []string{"greedy", "random", "colored"}

// levelRecord is one level walked by walkLevels: the refined labels as
// refinement left them, and what the live bookkeeping made of them.
type levelRecord struct {
	g       *graph.CSR // the level's graph
	raw     []uint32   // refined labels before renumbering
	bounds  []uint32   // move-phase labels
	dense   []uint32   // renumberRefined's labels
	k       int        // renumberRefined's count
	next    *graph.CSR // the aggregated graph (nil when the walk stopped)
	offsets []uint32   // next's offsets and holey capacity, as aggregate wrote them
	slots   int
	kNext   []float64 // ws.k[:k] as aggregate left it
	initC   []uint32  // moveLabels' labels for next's vertices
}

// walkLevels runs the pass loop's steps on g with the given refinement
// kernel for up to levels levels, recording each.
func walkLevels(g *graph.CSR, opt Options, kernel string, levels int) []levelRecord {
	if kernel == "random" {
		opt.Refinement = RefineRandom
	}
	ws := newWorkspace(g, opt.normalize())
	var out []levelRecord
	cur := g
	var init []uint32
	for pass := 0; pass < levels; pass++ {
		n := cur.NumVertices()
		if !ws.startPass(cur, pass, init) {
			break
		}
		tau := ws.opt.Tolerance
		var col *color.Coloring
		if kernel == "colored" {
			col = color.GreedyOn(ws.opt.Pool, cur, ws.opt.Threads)
			ws.movePhaseColored(cur, tau, col, pass, &PassStats{})
		} else {
			ws.movePhase(cur, tau, pass, &PassStats{})
		}
		ws.startRefine(n)
		if col != nil {
			ws.refinePhaseColored(cur, col)
		} else {
			ws.refinePhase(cur)
		}
		rec := levelRecord{
			g:      cur.Clone(),
			raw:    slices.Clone(ws.comm[:n]),
			bounds: slices.Clone(ws.bounds[:n]),
		}
		rec.k = ws.renumberRefined(n)
		rec.dense = slices.Clone(ws.comm[:n])
		if rec.k == n || rec.k == 0 {
			out = append(out, rec)
			break
		}
		next, _, _ := ws.aggregate(cur, rec.k)
		ws.sizes.rollup(ws.opt, ws.comm[:n], rec.k)
		rec.next = next.Clone()
		rec.offsets = slices.Clone(next.Offsets)
		rec.slots = len(next.Edges)
		rec.kNext = slices.Clone(ws.k[:rec.k])
		ws.moveLabels(n, rec.k)
		rec.initC = slices.Clone(ws.initC[:rec.k])
		out = append(out, rec)
		init = ws.initC[:rec.k]
		cur = next
	}
	return out
}

// bookkeepingGraphs are the four graph classes at test size, plus a
// wide-range-weighted graph with self-loops, zero-weight arcs and
// zero-degree vertices, laid out holey.
func bookkeepingGraphs() map[string]*graph.CSR {
	web, _ := gen.WebGraph(3000, 10, 5)
	social, _ := gen.SocialNetwork(3000, 12, 12, 0.3, 5)
	road, _ := gen.RoadNetwork(3000, 5)
	kmer, _ := gen.KmerGraph(3000, 5)
	return map[string]*graph.CSR{
		"web": web, "social": social, "road": road, "kmer": kmer,
		"odd-holey": holey(oddWeights(social, 9)),
	}
}

// oddWeights rebuilds g with weights spread over twelve decades (so the
// order of a float sum shows in its bits), one edge in ten of weight
// zero, a self-loop on every seventh vertex and ten trailing
// zero-degree vertices.
func oddWeights(g *graph.CSR, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	b := graph.NewBuilder(n + 10)
	for u := 0; u < n; u++ {
		es, _ := g.Neighbors(uint32(u))
		for _, v := range es {
			if uint32(u) >= v {
				continue
			}
			w := float32(math.Pow(10, rng.Float64()*12-6))
			if rng.Intn(10) == 0 {
				w = 0
			}
			b.AddEdge(uint32(u), v, w)
		}
		if u%7 == 0 {
			b.AddEdge(uint32(u), uint32(u), float32(rng.Float64()*3))
		}
	}
	return b.Build()
}

// holey copies g into a CSR with unused slots after each vertex's arcs,
// the layout aggregation writes.
func holey(g *graph.CSR) *graph.CSR {
	n := g.NumVertices()
	off := make([]uint32, n+1)
	cnt := make([]uint32, n)
	var total uint32
	for i := 0; i < n; i++ {
		off[i] = total
		cnt[i] = g.Degree(uint32(i))
		total += cnt[i] + uint32(i%3)
	}
	off[n] = total
	out := &graph.CSR{Offsets: off, Counts: cnt, Edges: make([]uint32, total), Weights: make([]float32, total)}
	for i := 0; i < n; i++ {
		es, ws := g.Neighbors(uint32(i))
		copy(out.Edges[off[i]:], es)
		copy(out.Weights[off[i]:], ws)
	}
	return out
}

// walkedLevel is one level of the walks forLevels shares.
type walkedLevel struct {
	name string
	rec  levelRecord
}

// walkedLevels walks every bookkeeping graph with every refinement
// kernel at 1, 2 and 7 threads, with the flat paths on and off (in
// -short mode at 2 and 7 threads with the flat paths on), once for all
// the tests that read the walks.
var walkedLevels = sync.OnceValue(func() []walkedLevel {
	threadCounts, noFlats := []int{1, 2, 7}, []bool{false, true}
	if testing.Short() {
		threadCounts, noFlats = []int{2, 7}, []bool{false}
	}
	var out []walkedLevel
	for name, g := range bookkeepingGraphs() {
		for _, kernel := range refineKernels {
			for _, threads := range threadCounts {
				for _, noFlat := range noFlats {
					opt := testOpts(threads)
					opt.DisableFlatScan = noFlat
					for l, rec := range walkLevels(g, opt, kernel, 4) {
						out = append(out, walkedLevel{fmt.Sprintf("%s/%s/t%d/noflat=%v/level%d", name, kernel, threads, noFlat, l), rec})
					}
				}
			}
		}
	}
	return out
})

// forLevels calls visit on every walked level.
func forLevels(t *testing.T, visit func(t *testing.T, name string, rec levelRecord)) {
	levels := walkedLevels()
	if len(levels) == 0 {
		t.Fatal("no level walked")
	}
	for _, l := range levels {
		visit(t, l.name, l.rec)
	}
}

// TestRenumberRefinedMatchesRenumber: on labelings from real runs of
// all three refinement kernels, the anchor renumber gives the labels
// and the count renumber gives.
func TestRenumberRefinedMatchesRenumber(t *testing.T) {
	forLevels(t, func(t *testing.T, name string, rec levelRecord) {
		n := len(rec.raw)
		ws := newWorkspace(rec.g, testOpts(2).normalize())
		want := slices.Clone(rec.raw)
		if k := ws.renumber(want, n); k != rec.k {
			t.Fatalf("%s: renumberRefined counted %d communities, renumber %d", name, rec.k, k)
		}
		if !slices.Equal(want, rec.dense) {
			t.Fatalf("%s: renumberRefined's labels differ from renumber's", name)
		}
	})
}

// TestRenumberRefinedEdgeCases covers n = 0, a single community and all
// singletons at 1, 2 and 7 threads.
func TestRenumberRefinedEdgeCases(t *testing.T) {
	const n = 5000
	cases := map[string][]uint32{"empty": {}, "single": make([]uint32, n), "singletons": make([]uint32, n)}
	for i := range cases["singletons"] {
		cases["singletons"][i] = uint32(i)
	}
	for name, labels := range cases {
		for _, threads := range []int{1, 2, 7} {
			ws := newWorkspace(gen.Path(n), testOpts(threads).normalize())
			copy(ws.comm, labels)
			got := ws.renumberRefined(len(labels))
			want := slices.Clone(labels)
			wantK := ws.renumber(want, len(want))
			if got != wantK || !slices.Equal(ws.comm[:len(labels)], want) {
				t.Fatalf("%s t%d: renumberRefined gave %d communities, renumber %d", name, threads, got, wantK)
			}
		}
	}
}

// TestRenumberRefinedFallsBack: a labeling in which some label names a
// vertex outside its community takes renumber's path and still gets
// renumber's labels — hand-made, and from a real refinement over
// negative-weight arcs, where a vertex of weighted degree zero joins a
// sub-community whose anchor, still looking isolated, then leaves it.
func TestRenumberRefinedFallsBack(t *testing.T) {
	for _, threads := range []int{1, 2, 7} {
		// Label 0 names vertex 0, which sits in community 1.
		labels := make([]uint32, 6000)
		for i := range labels {
			labels[i] = uint32(i % 2)
		}
		labels[0] = 1
		ws := newWorkspace(gen.Path(len(labels)), testOpts(threads).normalize())
		copy(ws.comm, labels)
		before := &ws.comm[0]
		k := ws.renumberRefined(len(labels))
		want := slices.Clone(labels)
		wantK := ws.renumber(want, len(want))
		if k != wantK || !slices.Equal(ws.comm[:len(labels)], want) {
			t.Fatalf("t%d: fallback gave %d communities, renumber %d", threads, k, wantK)
		}
		if &ws.comm[0] != before {
			t.Fatalf("t%d: the anchor path ran on a labeling without anchors", threads)
		}
	}

	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, -1)
	b.AddEdge(1, 3, 5)
	g := b.Build()
	ws := setupPass(g, testOpts(1))
	ws.startRefine(4)
	for v := range ws.bounds[:4] {
		ws.bounds[v] = 0
	}
	ws.refinePhase(g)
	raw := slices.Clone(ws.comm[:4])
	if raw[raw[0]] == raw[0] {
		t.Fatalf("premise: refinement left %v, where every label names a member", raw)
	}
	k := ws.renumberRefined(4)
	want := slices.Clone(raw)
	if wantK := ws.renumber(want, 4); k != wantK || !slices.Equal(ws.comm[:4], want) {
		t.Fatalf("refined %v: got %v (%d), want %v (%d)", raw, ws.comm[:4], k, want, wantK)
	}
}

// TestRefinedLabelsNameAMember pins the argument the anchor renumber
// rests on: after every refinement kernel, each label names a vertex of
// its own community — comm[comm[i]] == comm[i] — on the graph classes,
// on zero-degree vertices, zero-weight arcs and self-loops, and on
// stars whose centres and leaves race to merge.
func TestRefinedLabelsNameAMember(t *testing.T) {
	forLevels(t, func(t *testing.T, name string, rec levelRecord) {
		for i, c := range rec.raw {
			if rec.raw[c] != c {
				t.Fatalf("%s: vertex %d has label %d, whose vertex is in %d", name, i, c, rec.raw[c])
			}
		}
	})
	const s = 2000
	g := starsByRole(s)
	n := g.NumVertices()
	rounds := 100
	if testing.Short() {
		rounds = 20
	}
	for _, mode := range []RefinementMode{RefineGreedy, RefineRandom} {
		for round := 0; round < rounds; round++ {
			opt := testOpts(4)
			opt.Grain = s
			opt.Refinement = mode
			ws := setupPass(g, opt)
			for v := 0; v < n; v++ {
				ws.bounds[v] = uint32(v % s)
			}
			ws.refinePhase(g)
			for i, c := range ws.comm[:n] {
				if ws.comm[c] != c {
					t.Fatalf("%v round %d: vertex %d joined %d, whose vertex left for %d", mode, round, i, c, ws.comm[c])
				}
			}
		}
	}
}

// moveLabelsPerVertex is the per-vertex form of moveLabels: n CAS-mins
// over the vertices' bounds, then n atomic stores of each vertex's
// representative into its refined community's slot.
func moveLabelsPerVertex(ws *workspace, dense, bounds []uint32, k int) []uint32 {
	n := len(dense)
	lbl := make([]uint32, n)
	out := make([]uint32, k)
	ws.opt.Pool.FillUint32(lbl, ^uint32(0), ws.opt.Threads)
	ws.opt.Pool.For(n, ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			atomicMinUint32(&lbl[bounds[i]], dense[i])
		}
	})
	ws.opt.Pool.For(n, ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			atomic.StoreUint32(&out[dense[i]], lbl[bounds[i]])
		}
	})
	return out
}

// TestMoveLabelsMatchPerVertex: the per-community move labels equal the
// per-vertex ones on every level.
func TestMoveLabelsMatchPerVertex(t *testing.T) {
	forLevels(t, func(t *testing.T, name string, rec levelRecord) {
		if rec.next == nil {
			return
		}
		ws := newWorkspace(rec.g, testOpts(2).normalize())
		want := moveLabelsPerVertex(ws, rec.dense, rec.bounds, rec.k)
		if !slices.Equal(rec.initC, want) {
			t.Fatalf("%s: per-community move labels differ from the per-vertex ones", name)
		}
	})
}

// TestAggregateWritesNextVertexWeights: the K' aggregation leaves for
// the next level equals VertexWeight of the aggregated graph bit for
// bit, over flat and dense communities, self-loops, zero-weight arcs,
// wide-range weights and holey inputs.
func TestAggregateWritesNextVertexWeights(t *testing.T) {
	forLevels(t, func(t *testing.T, name string, rec levelRecord) {
		if rec.next == nil {
			return
		}
		for c := 0; c < rec.k; c++ {
			want := rec.next.VertexWeight(uint32(c))
			if math.Float64bits(rec.kNext[c]) != math.Float64bits(want) {
				t.Fatalf("%s: K'[%d] = %v from aggregation, VertexWeight %v", name, c, rec.kNext[c], want)
			}
		}
	})
}

// TestAggregateDegreeSumsMatchAtomic: the super-vertex offsets and
// capacity from the member lists equal the per-vertex atomic degree sums
// they replaced.
func TestAggregateDegreeSumsMatchAtomic(t *testing.T) {
	forLevels(t, func(t *testing.T, name string, rec levelRecord) {
		if rec.next == nil {
			return
		}
		ws := newWorkspace(rec.g, testOpts(2).normalize())
		pool, threads, grain := ws.opt.Pool, ws.opt.Threads, ws.opt.Grain
		off := make([]uint32, rec.k+1)
		pool.For(len(rec.dense), threads, grain, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				atomic.AddUint32(&off[rec.dense[i]], rec.g.Degree(uint32(i)))
			}
		})
		capacity := pool.ExclusiveScanUint32(off, threads)
		if !slices.Equal(rec.offsets, off) || rec.slots != int(capacity) {
			t.Fatalf("%s: offsets/capacity %d differ from the atomic sums' (%d)", name, rec.slots, capacity)
		}
	})
}

// leidenReference is the pass loop as it stood before the level-sized
// bookkeeping, over the live kernels and aggregation: vertex weights
// swept on every pass, the refined labels densified by renumber,
// per-vertex move labels, terminal labels applied to the dendrogram raw,
// and the top labels renumbered at the end.
func leidenReference(g *graph.CSR, opt Options) (*Result, *Hierarchy) {
	opt = opt.normalize()
	ws := newWorkspace(g, opt)
	ws.hierarchy = &Hierarchy{}
	cur := g
	tau := opt.Tolerance
	haveInit := false
	opt.Pool.Iota(ws.top, opt.Threads)
	terminal := func(labels []uint32) {
		ws.splitConnected(cur, labels)
		ws.recordLevel(labels, -1)
		ws.lookupDendrogram(labels)
	}
	for pass := 0; pass < opt.MaxPasses; pass++ {
		var ps PassStats
		n := cur.NumVertices()
		ps.Vertices, ps.Arcs = n, cur.NumArcs()
		ws.vertexWeights(cur, ws.k[:n])
		if pass == 0 {
			ws.m = opt.Pool.SumFloat64(ws.k[:n], opt.Threads) / 2
			if ws.m == 0 {
				ws.stats.Passes = append(ws.stats.Passes, ps)
				break
			}
			ws.sizes.unit(opt, n)
		}
		var init []uint32
		if haveInit {
			init = slices.Clone(ws.initC[:n])
		}
		ws.initialCommunities(n, init)
		var col *color.Coloring
		var li int
		if opt.Deterministic {
			col = color.GreedyOn(opt.Pool, cur, opt.Threads)
			li = ws.movePhaseColored(cur, tau, col, pass, &ps)
		} else {
			li = ws.movePhase(cur, tau, pass, &ps)
		}
		ws.startRefine(n)
		var moves int64
		if col != nil {
			moves = ws.refinePhaseColored(cur, col)
		} else {
			moves = ws.refinePhase(cur)
		}
		haveInit = false
		if li <= 1 && moves == 0 {
			terminal(ws.bounds[:n])
			ws.stats.Passes = append(ws.stats.Passes, ps)
			break
		}
		comm := ws.comm[:n]
		nComms := ws.renumber(comm, n)
		ps.Communities = nComms
		if float64(nComms)/float64(n) > opt.AggregationTolerance {
			terminal(ws.bounds[:n])
			ws.stats.Passes = append(ws.stats.Passes, ps)
			break
		}
		ws.recordLevel(comm, nComms)
		ws.lookupDendrogram(comm)
		next, _, occ := ws.aggregate(cur, nComms)
		ws.sizes.rollup(opt, comm, nComms)
		ps.AggOccupancy = occ
		if opt.Labels == LabelMove {
			copy(ws.initC, moveLabelsPerVertex(ws, comm, ws.bounds[:n], nComms))
			haveInit = true
		}
		cur = next
		tau /= opt.ToleranceDrop
		ws.stats.Passes = append(ws.stats.Passes, ps)
	}
	if haveInit {
		terminal(ws.initC[:cur.NumVertices()])
	}
	if opt.FinalRefine {
		ws.finalRefine(g)
		ws.splitConnected(g, ws.top)
	}
	return finishResult(g, ws, ws.renumber(ws.top, ws.n0), 0), ws.hierarchy
}

// terminalPath names the branch a run ended on, from its last pass.
func terminalPath(res *Result, maxPasses int) string {
	last := res.Stats.Passes[len(res.Stats.Passes)-1]
	switch {
	case last.AggOccupancy > 0 && res.Passes == maxPasses:
		return "max-passes"
	case last.Communities > 0:
		return "low-shrink"
	default:
		return "converged"
	}
}

// TestDenseEpilogueMatchesReference: the run that renumbers its last
// level before the dendrogram lookup gives the reference loop's
// membership, count, modularity and hierarchy on every terminal path.
func TestDenseEpilogueMatchesReference(t *testing.T) {
	cliques := func() *graph.CSR {
		b := graph.NewBuilder(0)
		for c := uint32(0); c < 40; c++ {
			for i := uint32(0); i < 6; i++ {
				for j := i + 1; j < 6; j++ {
					b.AddEdge(6*c+i, 6*c+j, 1)
				}
			}
		}
		return b.Build()
	}()
	graphs := bookkeepingGraphs()
	if testing.Short() {
		graphs = map[string]*graph.CSR{"road": graphs["road"], "odd-holey": graphs["odd-holey"]}
	}
	graphs["cliques"] = cliques
	paths := map[string]bool{}
	for name, g := range graphs {
		for _, tc := range []struct {
			tag string
			mod func(*Options)
		}{
			{"default", func(*Options) {}},
			{"deterministic", func(o *Options) { o.Deterministic = true }},
			{"low-shrink", func(o *Options) { o.AggregationTolerance = 0.05 }},
			{"passes1", func(o *Options) { o.MaxPasses = 1 }},
			{"passes2", func(o *Options) { o.MaxPasses = 2 }},
			{"passes2-refine-labels", func(o *Options) { o.MaxPasses = 2; o.Labels = LabelRefine }},
			{"final-refine", func(o *Options) { o.FinalRefine = true }},
		} {
			opt := testOpts(1)
			tc.mod(&opt)
			want, wantH := leidenReference(g, opt)
			got, gotH := LeidenHierarchy(g, opt)
			label := name + "/" + tc.tag
			if got.NumCommunities != want.NumCommunities || !slices.Equal(got.Membership, want.Membership) {
				t.Fatalf("%s: %d communities, reference %d; memberships equal: %v", label,
					got.NumCommunities, want.NumCommunities, slices.Equal(got.Membership, want.Membership))
			}
			if math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) ||
				math.Float64bits(got.Quality) != math.Float64bits(want.Quality) {
				t.Fatalf("%s: modularity %v quality %v, reference %v %v", label, got.Modularity, got.Quality, want.Modularity, want.Quality)
			}
			if len(gotH.Levels) != len(wantH.Levels) {
				t.Fatalf("%s: %d levels, reference %d", label, len(gotH.Levels), len(wantH.Levels))
			}
			for l := range gotH.Levels {
				a, b := gotH.Levels[l], wantH.Levels[l]
				if a.Communities != b.Communities || a.Vertices != b.Vertices || !slices.Equal(a.Membership, b.Membership) {
					t.Fatalf("%s: level %d differs from the reference's", label, l)
				}
			}
			for p := range got.Stats.Passes {
				if got.Stats.Passes[p].Arcs != want.Stats.Passes[p].Arcs {
					t.Fatalf("%s: pass %d reports %d arcs, reference %d", label, p, got.Stats.Passes[p].Arcs, want.Stats.Passes[p].Arcs)
				}
			}
			if !opt.FinalRefine {
				paths[terminalPath(got, opt.normalize().MaxPasses)] = true
			}
		}
	}
	for _, p := range []string{"converged", "low-shrink", "max-passes"} {
		if !paths[p] {
			t.Errorf("no case ended on the %s path", p)
		}
	}
}

// TestRenumberedTopLabelsDense: FinalRefine and Louvain, which keep
// renumbering the top labels, still return labels dense in [0, k).
func TestRenumberedTopLabelsDense(t *testing.T) {
	threadCounts := []int{1, 2}
	if testing.Short() {
		threadCounts = []int{2}
	}
	for name, g := range bookkeepingGraphs() {
		for _, threads := range threadCounts {
			opt := testOpts(threads)
			opt.FinalRefine = true
			for algo, res := range map[string]*Result{
				"leiden-final-refine": Leiden(g, opt), "louvain": Louvain(g, testOpts(threads)), "louvain-final-refine": Louvain(g, opt),
			} {
				seen := make([]bool, res.NumCommunities)
				for v, c := range res.Membership {
					if int(c) >= res.NumCommunities {
						t.Fatalf("%s %s t%d: vertex %d has label %d of %d", name, algo, threads, v, c, res.NumCommunities)
					}
					seen[c] = true
				}
				if i := slices.Index(seen, false); i >= 0 {
					t.Fatalf("%s %s t%d: label %d unused", name, algo, threads, i)
				}
			}
		}
	}
}

// TestTablesAllocatedOnFirstNeed: a thread's dense table exists only
// once that thread scans past FlatCap, covers the level's key range,
// and belongs to that thread alone. Road graphs take the flat path on
// their large levels, so the run's tables are far smaller than the
// input graph.
func TestTablesAllocatedOnFirstNeed(t *testing.T) {
	ws := newWorkspace(gen.Path(100), testOpts(3).normalize())
	for tid, h := range ws.tables {
		if h != nil {
			t.Fatalf("table %d allocated up front", tid)
		}
	}
	a, b := ws.table(0, 40), ws.table(2, 40)
	if ws.tables[1] != nil || a.Cap() != 40 || b.Cap() != 40 {
		t.Fatalf("tables: %v, caps %d %d", ws.tables, a.Cap(), b.Cap())
	}
	a.Add(7, 1)
	if b.Has(7) {
		t.Fatal("per-thread tables share state")
	}
	if ws.table(0, 30) != a || a.Cap() != 40 {
		t.Fatal("a smaller level reallocated the table")
	}
	if ws.table(0, 100).Cap() != 100 {
		t.Fatal("a larger key range did not grow the table")
	}

	g, _ := gen.RoadNetwork(20000, 3)
	ws = newWorkspace(g, testOpts(2).normalize())
	ws.leiden(g)
	for tid, h := range ws.tables {
		if h != nil && h.Cap() >= g.NumVertices()/2 {
			t.Fatalf("road: thread %d's table covers %d keys of %d vertices", tid, h.Cap(), g.NumVertices())
		}
	}
}
