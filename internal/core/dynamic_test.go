package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// evolvedPair builds a planted graph, a batch of random updates, and
// the updated snapshot.
func evolvedPair(seed uint64, nIns, nDel int) (old, new_ *graph.CSR, delta Delta) {
	g, _ := gen.PlantedPartition(gen.PlantedConfig{
		N: 2000, Communities: 20, MinSize: 40, MaxSize: 300,
		AvgDegree: 12, Mixing: 0.25, Seed: seed,
	})
	ins, del := graph.RandomDelta(g, nIns, nDel, seed+1)
	gNew, err := graph.ApplyDelta(g, ins, del)
	if err != nil {
		panic(err)
	}
	return g, gNew, Delta{Insertions: ins, Deletions: del}
}

func TestApplyDelta(t *testing.T) {
	g := graph.FromAdjacency([][]uint32{{1, 2}, {0}, {0, 3}, {2}})
	ins := []graph.Edge{{U: 1, V: 3, W: 2}}
	del := []graph.Edge{{U: 0, V: 2}}
	h, err := graph.ApplyDelta(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	if h.HasArc(0, 2) || h.HasArc(2, 0) {
		t.Fatal("deleted edge survived")
	}
	if h.ArcWeight(1, 3) != 2 || h.ArcWeight(3, 1) != 2 {
		t.Fatal("inserted edge missing")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Insertion mentioning a new vertex grows the graph.
	h2, err := graph.ApplyDelta(g, []graph.Edge{{U: 3, V: 9, W: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumVertices() != 10 {
		t.Fatalf("n = %d, want 10", h2.NumVertices())
	}
}

func TestRandomDeltaShape(t *testing.T) {
	g, _ := gen.WebGraph(500, 8, 3)
	ins, del := graph.RandomDelta(g, 20, 15, 5)
	if len(ins) != 20 || len(del) != 15 {
		t.Fatalf("delta sizes %d/%d", len(ins), len(del))
	}
	for _, e := range ins {
		if g.HasArc(e.U, e.V) {
			t.Fatal("insertion already present")
		}
	}
	for _, e := range del {
		if !g.HasArc(e.U, e.V) {
			t.Fatal("deletion not present in the graph")
		}
	}
	// Deterministic for a fixed seed.
	ins2, _ := graph.RandomDelta(g, 20, 15, 5)
	for i := range ins {
		if ins[i] != ins2[i] {
			t.Fatal("RandomDelta not deterministic")
		}
	}
}

func TestLeidenDynamicMatchesStaticQuality(t *testing.T) {
	for _, mode := range []DynamicMode{DynamicNaive, DynamicFrontier} {
		gOld, gNew, delta := evolvedPair(5, 60, 40)
		opt := testOpts(4)
		prev := Leiden(gOld, opt)
		static := Leiden(gNew, opt)
		dyn := LeidenDynamic(gNew, prev.Membership, delta, mode, opt)
		if err := quality.ValidatePartition(gNew, dyn.Membership); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if dyn.Modularity < static.Modularity-0.02 {
			t.Errorf("%v: dynamic Q %.4f below static %.4f",
				mode, dyn.Modularity, static.Modularity)
		}
		if ds := quality.CountDisconnected(gNew, dyn.Membership, 4); ds.Disconnected != 0 {
			t.Errorf("%v: %d disconnected communities", mode, ds.Disconnected)
		}
		if nmi := quality.NMI(dyn.Membership, static.Membership); nmi < 0.85 {
			t.Errorf("%v: dynamic diverged from static: NMI %.3f", mode, nmi)
		}
	}
}

func TestLeidenDynamicEmptyDelta(t *testing.T) {
	g, _ := gen.WebGraph(1000, 10, 17)
	opt := testOpts(2)
	prev := Leiden(g, opt)
	dyn := LeidenDynamic(g, prev.Membership, Delta{}, DynamicFrontier, opt)
	// Nothing changed: the warm-started run must keep (up to label
	// names) the previous communities and their quality.
	if nmi := quality.NMI(dyn.Membership, prev.Membership); nmi < 0.99 {
		t.Fatalf("empty delta changed communities: NMI %.3f", nmi)
	}
	if dyn.Modularity < prev.Modularity-1e-9 {
		t.Fatalf("empty delta lost quality: %.6f → %.6f", prev.Modularity, dyn.Modularity)
	}
}

func TestLeidenDynamicFrontierDoesLessWork(t *testing.T) {
	gOld, gNew, delta := evolvedPair(9, 20, 10)
	opt := testOpts(1)
	prev := Leiden(gOld, opt)
	static := Leiden(gNew, opt)
	dyn := LeidenDynamic(gNew, prev.Membership, delta, DynamicFrontier, opt)
	// The frontier-limited first pass must run fewer local-moving
	// iterations than the cold run's first pass (a robust proxy for
	// work done, unlike wall time).
	staticIters := static.Stats.Passes[0].MoveIterations
	dynIters := dyn.Stats.Passes[0].MoveIterations
	if dynIters > staticIters {
		t.Errorf("frontier pass 0 used %d iterations vs static %d", dynIters, staticIters)
	}
}

func TestLeidenDynamicNewVertices(t *testing.T) {
	gOld, _ := gen.WebGraph(800, 10, 29)
	// Attach a new 3-vertex path to vertex 0.
	n := uint32(gOld.NumVertices())
	ins := []graph.Edge{
		{U: 0, V: n, W: 1}, {U: n, V: n + 1, W: 1}, {U: n + 1, V: n + 2, W: 1},
	}
	gNew, err := graph.ApplyDelta(gOld, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOpts(2)
	prev := Leiden(gOld, opt)
	for _, mode := range []DynamicMode{DynamicNaive, DynamicFrontier} {
		dyn := LeidenDynamic(gNew, prev.Membership, Delta{Insertions: ins}, mode, opt)
		if len(dyn.Membership) != gNew.NumVertices() {
			t.Fatalf("%v: membership ignores new vertices", mode)
		}
		if err := quality.ValidatePartition(gNew, dyn.Membership); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// The new path hangs off vertex 0. Modularity may either absorb
		// it into 0's community or keep the path as its own community
		// (joining a large community pays a Σc penalty) — but it must
		// not leave the tail vertices as separate singletons, and the
		// head must connect to one of its two neighbours' communities.
		if dyn.Membership[n+1] != dyn.Membership[n+2] {
			t.Errorf("%v: path tail split into singletons", mode)
		}
		if dyn.Membership[n] != dyn.Membership[0] && dyn.Membership[n] != dyn.Membership[n+1] {
			t.Errorf("%v: new vertex joined neither neighbour's community", mode)
		}
		if ds := quality.CountDisconnected(gNew, dyn.Membership, 2); ds.Disconnected != 0 {
			t.Errorf("%v: %d disconnected", mode, ds.Disconnected)
		}
	}
}

func TestLeidenDynamicModeStrings(t *testing.T) {
	if DynamicNaive.String() != "naive-dynamic" ||
		DynamicFrontier.String() != "dynamic-frontier" ||
		DynamicMode(9).String() != "unknown" {
		t.Fatal("dynamic mode strings wrong")
	}
}

// mapWarmLabels is the warm-label map runLeidenDynamic used before
// warmLabels, kept as the reference.
func mapWarmLabels(prev []uint32, n int) []uint32 {
	warm := make([]uint32, n)
	rep := make(map[uint32]uint32, 256)
	bound := min(len(prev), n)
	for i := 0; i < bound; i++ {
		r, ok := rep[prev[i]]
		if !ok {
			r = uint32(i)
			rep[prev[i]] = r
		}
		warm[i] = r
	}
	for i := bound; i < n; i++ {
		warm[i] = uint32(i)
	}
	return warm
}

// TestWarmLabelsMatchMapReference: on dense memberships, memberships
// with labels at and past len(prev) and new vertices beyond prev, the
// warm labels name the same representatives as the map did, so warm
// runs make the same decisions.
func TestWarmLabelsMatchMapReference(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		m := rng.IntN(300)
		k := 1 + rng.IntN(max(m, 1))
		prev := make([]uint32, m)
		for i := range prev {
			prev[i] = rng.Uint32N(uint32(k))
			switch seed % 3 {
			case 1: // some labels past len(prev)
				if rng.IntN(4) == 0 {
					prev[i] += uint32(m)
				}
			case 2: // every label past len(prev)
				prev[i] = uint32(m) + 1000*prev[i]
			}
		}
		n := m + rng.IntN(20)
		if got, want := warmLabels(prev, n), mapWarmLabels(prev, n); !slices.Equal(got, want) {
			t.Fatalf("seed %d: warm labels %v, want %v", seed, got, want)
		}
	}
}
