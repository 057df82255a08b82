package core

import (
	"math"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// setupPass builds a workspace and runs runLeiden's own pass-0
// initialization, returning the workspace ready for phases.
func setupPass(g *graph.CSR, opt Options) *workspace {
	ws := newWorkspace(g, opt.normalize())
	ws.startPass(g, 0, nil)
	return ws
}

func TestMovePhaseImprovesModularity(t *testing.T) {
	g, _ := gen.PlantedPartition(gen.PlantedConfig{
		N: 800, Communities: 8, MinSize: 40, MaxSize: 300,
		AvgDegree: 10, Mixing: 0.25, Seed: 3,
	})
	ws := setupPass(g, testOpts(4))
	n := g.NumVertices()
	before := quality.Modularity(g, ws.comm[:n]) // singletons
	iters := ws.movePhase(g, ws.opt.Tolerance, 0, &PassStats{})
	after := quality.Modularity(g, ws.comm[:n])
	if iters < 1 {
		t.Fatal("no iterations performed")
	}
	if after <= before+0.1 {
		t.Fatalf("local moving barely improved Q: %.4f → %.4f", before, after)
	}
}

func TestMovePhaseSigmaConsistent(t *testing.T) {
	// After the move phase, Σ'[c] must equal the sum of K over members:
	// the atomic updates must not lose weight.
	g, _ := gen.WebGraph(1000, 10, 7)
	ws := setupPass(g, testOpts(8))
	n := g.NumVertices()
	ws.movePhase(g, ws.opt.Tolerance, 0, &PassStats{})
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		want[ws.comm[i]] += ws.k[i]
	}
	for c := 0; c < n; c++ {
		if math.Abs(ws.sigma.Get(c)-want[c]) > 1e-6 {
			t.Fatalf("Σ[%d] = %v, want %v", c, ws.sigma.Get(c), want[c])
		}
	}
}

// TestRefinementIsRefinementOfBounds verifies the key structural
// invariant of Algorithm 3: the refined partition never crosses the
// community bounds from the local-moving phase.
func TestRefinementIsRefinementOfBounds(t *testing.T) {
	for _, mode := range []RefinementMode{RefineGreedy, RefineRandom} {
		g, _ := gen.SocialNetwork(1500, 12, 10, 0.3, 8)
		opt := testOpts(4)
		opt.Refinement = mode
		ws := setupPass(g, opt)
		n := g.NumVertices()
		ws.movePhase(g, ws.opt.Tolerance, 0, &PassStats{})
		ws.startRefine(n)
		ws.refinePhase(g)
		if !quality.IsRefinementOf(ws.comm[:n], ws.bounds[:n]) {
			t.Fatalf("%v: refinement crossed community bounds", mode)
		}
	}
}

// TestRefinementSubCommunitiesConnected verifies the guarantee that the
// constrained merge procedure grows only connected sub-communities —
// the mechanism that repairs internally-disconnected communities.
func TestRefinementSubCommunitiesConnected(t *testing.T) {
	g, _ := gen.WebGraph(1500, 12, 19)
	ws := setupPass(g, testOpts(8))
	n := g.NumVertices()
	ws.movePhase(g, ws.opt.Tolerance, 0, &PassStats{})
	ws.startRefine(n)
	ws.refinePhase(g)
	if ds := quality.CountDisconnected(g, ws.comm[:n], 4); ds.Disconnected != 0 {
		t.Fatalf("%d refined sub-communities are internally disconnected", ds.Disconnected)
	}
}

func TestRefineSigmaConsistent(t *testing.T) {
	g, _ := gen.WebGraph(1000, 10, 23)
	ws := setupPass(g, testOpts(8))
	n := g.NumVertices()
	ws.movePhase(g, ws.opt.Tolerance, 0, &PassStats{})
	ws.startRefine(n)
	ws.refinePhase(g)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		want[ws.comm[i]] += ws.k[i]
	}
	for c := 0; c < n; c++ {
		if math.Abs(ws.sigma.Get(c)-want[c]) > 1e-6 {
			t.Fatalf("after refine: Σ[%d] = %v, want %v", c, ws.sigma.Get(c), want[c])
		}
	}
}

// TestAggregatePreservesWeightAndModularity checks the aggregation
// invariants: total edge weight is preserved exactly, and the refined
// partition's modularity on G' equals the singleton partition's
// modularity on the super-vertex graph G”.
func TestAggregatePreservesWeightAndModularity(t *testing.T) {
	g, _ := gen.SocialNetwork(1200, 14, 8, 0.3, 31)
	ws := setupPass(g, testOpts(4))
	n := g.NumVertices()
	ws.movePhase(g, ws.opt.Tolerance, 0, &PassStats{})
	ws.startRefine(n)
	ws.refinePhase(g)
	refined := append([]uint32(nil), ws.comm[:n]...)
	nComms := ws.renumber(ws.comm[:n], n)
	if nComms >= n {
		t.Fatal("no shrink — test premise broken")
	}
	super, _, _ := ws.aggregate(g, nComms)

	if super.NumVertices() != nComms {
		t.Fatalf("super |V| = %d, want %d", super.NumVertices(), nComms)
	}
	if math.Abs(super.TotalWeight()-g.TotalWeight()) > 1e-3 {
		t.Fatalf("aggregation changed total weight: %v → %v",
			g.TotalWeight(), super.TotalWeight())
	}
	// Modularity equivalence: Q(G', refined) == Q(G'', singletons).
	singles := make([]uint32, nComms)
	for i := range singles {
		singles[i] = uint32(i)
	}
	qRefined := quality.Modularity(g, ws.comm[:n]) // renumbered refined
	qSuper := quality.Modularity(super, singles)
	if math.Abs(qRefined-qSuper) > 1e-9 {
		t.Fatalf("Q(G',refined)=%v != Q(G'',singletons)=%v", qRefined, qSuper)
	}
	_ = refined

	// The super graph must itself be structurally sound.
	compact := super.Compact()
	if err := compact.Validate(); err != nil {
		t.Fatalf("super graph invalid: %v", err)
	}
}

func TestAggregateSelfLoopsCarryInternalWeight(t *testing.T) {
	// Two K3s joined by an edge; aggregate by the triangle partition.
	b := graph.NewBuilder(6)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1], 1)
	}
	b.AddEdge(2, 3, 1)
	g := b.Build()
	ws := setupPass(g, testOpts(1))
	copy(ws.comm[:6], []uint32{0, 0, 0, 1, 1, 1})
	super, _, _ := ws.aggregate(g, 2)
	// Each triangle has internal arc weight 6 (3 edges × 2 arcs).
	if got := super.ArcWeight(0, 0); got != 6 {
		t.Fatalf("super self-loop = %v, want 6", got)
	}
	if got := super.ArcWeight(0, 1); got != 1 {
		t.Fatalf("super cross arc = %v, want 1", got)
	}
	if got := super.TotalWeight(); got != g.TotalWeight() {
		t.Fatalf("total weight %v, want %v", got, g.TotalWeight())
	}
}

func TestRenumberDense(t *testing.T) {
	ws := newWorkspace(gen.Path(10), testOpts(2).normalize())
	comm := []uint32{7, 3, 7, 9, 3, 3, 0, 9, 7, 0}
	copy(ws.comm[:10], comm)
	n := ws.renumber(ws.comm[:10], 10)
	if n != 4 {
		t.Fatalf("distinct labels = %d, want 4", n)
	}
	// Renumbering preserves the partition and yields ids < n.
	orig := map[uint32]uint32{}
	for i := 0; i < 10; i++ {
		nw := ws.comm[i]
		if int(nw) >= 4 {
			t.Fatalf("label %d not dense", nw)
		}
		if prev, ok := orig[comm[i]]; ok && prev != nw {
			t.Fatal("renumbering split a community")
		}
		orig[comm[i]] = nw
	}
	if len(orig) != 4 {
		t.Fatal("renumbering merged communities")
	}
}

func TestMoveLabelsGroupRefinedCommunities(t *testing.T) {
	// Hand-crafted: 4 vertices, move partition {0,1},{2,3}, refined
	// singletons renumbered 0..3 — move labels must group {0,1} and
	// {2,3} with a representative refined id each.
	ws := newWorkspace(gen.Path(4), testOpts(1).normalize())
	copy(ws.bounds[:4], []uint32{1, 1, 3, 3}) // raw move labels (vertex ids)
	copy(ws.comm[:4], []uint32{0, 1, 2, 3})   // refined, renumbered
	ws.members(4, 4)
	ws.moveLabels(4, 4)
	if ws.initC[0] != ws.initC[1] || ws.initC[2] != ws.initC[3] {
		t.Fatalf("move labels failed to group: %v", ws.initC[:4])
	}
	if ws.initC[0] == ws.initC[2] {
		t.Fatal("move labels merged distinct bounds")
	}
	if ws.initC[0] != 0 || ws.initC[2] != 2 {
		t.Fatalf("representatives must be the min refined ids: %v", ws.initC[:4])
	}
}

func TestScanCommunities(t *testing.T) {
	g := graph.FromAdjacency([][]uint32{{1, 2, 3}, {0}, {0}, {0}})
	ws := newWorkspace(g, testOpts(1).normalize())
	copy(ws.comm[:4], []uint32{0, 1, 1, 2})
	h := ws.table(0, 4)
	h.Clear()
	scanCommunities(h, g, ws.comm[:4], 0, false)
	if h.Get(1) != 2 || h.Get(2) != 1 {
		t.Fatalf("scan: H[1]=%v H[2]=%v", h.Get(1), h.Get(2))
	}
	if h.Has(0) {
		t.Fatal("scan must not count the vertex's own community via no edges")
	}
	// With a self-loop and self=true the own community is counted.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0, 3)
	b.AddEdge(0, 1, 1)
	g2 := b.Build()
	h.Clear()
	comm2 := []uint32{0, 1}
	scanCommunities(h, g2, comm2, 0, true)
	if h.Get(0) != 3 {
		t.Fatalf("self=true must include the loop: H[0]=%v", h.Get(0))
	}
	h.Clear()
	scanCommunities(h, g2, comm2, 0, false)
	if h.Has(0) {
		t.Fatal("self=false must skip the loop")
	}
}
