package gen

import (
	"slices"
	"testing"

	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// connected reports whether g is one connected component: the
// disconnected-community counter on the all-zero membership.
func connected(g *graph.CSR) bool {
	return quality.CountDisconnected(g, make([]uint32, g.NumVertices()), 1).Disconnected == 0
}

func TestClassicShapes(t *testing.T) {
	p := Path(5)
	if p.NumVertices() != 5 || p.NumUndirectedEdges() != 4 {
		t.Fatalf("path: n=%d e=%d", p.NumVertices(), p.NumUndirectedEdges())
	}
	c := Cycle(5)
	if c.NumUndirectedEdges() != 5 {
		t.Fatalf("cycle edges = %d", c.NumUndirectedEdges())
	}
	for i := 0; i < 5; i++ {
		if c.Degree(uint32(i)) != 2 {
			t.Fatalf("cycle degree(%d) = %d", i, c.Degree(uint32(i)))
		}
	}
	s := Star(5)
	if s.Degree(0) != 4 || s.Degree(1) != 1 {
		t.Fatal("star degrees wrong")
	}
	k := Complete(5)
	if k.NumUndirectedEdges() != 10 {
		t.Fatalf("K5 edges = %d", k.NumUndirectedEdges())
	}
	g := Grid(3, 4)
	if g.NumVertices() != 12 || g.NumUndirectedEdges() != int64(2*4+3*3) {
		t.Fatalf("grid: n=%d e=%d", g.NumVertices(), g.NumUndirectedEdges())
	}
}

func TestAllGeneratorsProduceValidGraphs(t *testing.T) {
	cases := map[string]*graph.CSR{
		"path":     Path(50),
		"cycle":    Cycle(50),
		"star":     Star(50),
		"complete": Complete(20),
		"grid":     Grid(8, 8),
		"er":       ErdosRenyi(200, 800, 1),
		"ba":       BarabasiAlbert(200, 4, 2),
		"rmat":     RMAT(9, 2000, 0, 0, 0, 3),
		"rgg":      RandomGeometric(300, 0.08, 4),
	}
	web, _ := WebGraph(500, 12, 5)
	cases["web"] = web
	soc, _ := SocialNetwork(500, 12, 8, 0.3, 6)
	cases["social"] = soc
	road, _ := RoadNetwork(500, 7)
	cases["road"] = road
	kmer, _ := KmerGraph(500, 8)
	cases["kmer"] = kmer
	pp, _ := PlantedPartition(PlantedConfig{N: 500, Communities: 8, MinSize: 20, MaxSize: 200, AvgDegree: 10, Mixing: 0.2, Seed: 9})
	cases["planted"] = pp
	for name, g := range cases {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: invalid graph: %v", name, err)
		}
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	g := ErdosRenyi(100, 300, 11)
	if g.NumUndirectedEdges() != 300 {
		t.Fatalf("G(n,m) edges = %d, want 300", g.NumUndirectedEdges())
	}
	// m capped at n(n-1)/2.
	g = ErdosRenyi(5, 100, 11)
	if g.NumUndirectedEdges() != 10 {
		t.Fatalf("capped edges = %d, want 10", g.NumUndirectedEdges())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := ErdosRenyi(300, 900, 42)
	b := ErdosRenyi(300, 900, 42)
	if a.NumArcs() != b.NumArcs() {
		t.Fatal("ER not deterministic")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("ER edge arrays differ for same seed")
		}
	}
	w1, m1 := WebGraph(400, 10, 9)
	w2, m2 := WebGraph(400, 10, 9)
	if w1.NumArcs() != w2.NumArcs() {
		t.Fatal("web generator not deterministic")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("web memberships differ for same seed")
		}
	}
	c := ErdosRenyi(300, 900, 43)
	same := c.NumArcs() == a.NumArcs()
	if same {
		diff := false
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

// TestByName: each name builds the graph of its generator with the
// command-line tools' parameters, and an unknown or empty name is an
// error.
func TestByName(t *testing.T) {
	const n, seed = 500, 7
	web, _ := WebGraph(n, 20, seed)
	social, _ := SocialNetwork(n, 20, 64, 0.35, seed)
	road, _ := RoadNetwork(n, seed)
	kmer, _ := KmerGraph(n, seed)
	want := map[string]*graph.CSR{
		"web": web, "social": social, "road": road, "kmer": kmer,
		"er":   ErdosRenyi(n, n*8, seed),
		"ba":   BarabasiAlbert(n, 8, seed),
		"rmat": RMAT(9, n*8, 0, 0, 0, seed),
	}
	for name, w := range want {
		g, err := ByName(name, n, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(g.Offsets, w.Offsets) || !slices.Equal(g.Edges, w.Edges) || !slices.Equal(g.Weights, w.Weights) {
			t.Errorf("%s: ByName built a different graph", name)
		}
	}
	for _, name := range []string{"", "grid", "Web"} {
		if _, err := ByName(name, n, seed); err == nil || err.Error() != "unknown generator \""+name+"\"" {
			t.Errorf("ByName(%q) error = %v", name, err)
		}
	}
}

func TestBarabasiAlbertDegrees(t *testing.T) {
	g := BarabasiAlbert(500, 3, 1)
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Every non-seed vertex attaches with ≥ k edges; hubs emerge.
	_, max, avg := g.DegreeStats()
	if avg < 5 || avg > 7 { // ≈ 2k
		t.Fatalf("BA avg degree = %v, want ≈6", avg)
	}
	if max < 20 {
		t.Fatalf("BA max degree = %d: no hubs → not preferential", max)
	}
	if !connected(g) {
		t.Fatal("BA graph must be connected")
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(10, 4000, 0, 0, 0, 5)
	_, max, avg := g.DegreeStats()
	if max < uint32(6*avg) {
		t.Fatalf("RMAT max degree %d not skewed vs avg %.1f", max, avg)
	}
}

func TestPlantedPartitionStructure(t *testing.T) {
	cfg := PlantedConfig{N: 1000, Communities: 10, MinSize: 40, MaxSize: 300, AvgDegree: 12, Mixing: 0.15, Seed: 21}
	g, member := PlantedPartition(cfg)
	if len(member) != 1000 {
		t.Fatalf("membership len = %d", len(member))
	}
	if got := member.NumCommunities(); got != 10 {
		t.Fatalf("communities = %d, want 10", got)
	}
	_, _, avg := g.DegreeStats()
	if avg < 9 || avg > 13 {
		t.Fatalf("avg degree = %v, want ≈12", avg)
	}
	// Most edges must be intra-community at μ=0.15.
	var intra, total int
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		es, _ := g.Neighbors(uint32(i))
		for _, e := range es {
			total++
			if member[i] == member[e] {
				intra++
			}
		}
	}
	frac := float64(intra) / float64(total)
	if frac < 0.7 {
		t.Fatalf("intra-community edge fraction %.2f too low for μ=0.15", frac)
	}
}

func TestRoadAndKmerDegreeRegime(t *testing.T) {
	road, _ := RoadNetwork(5000, 3)
	_, _, avg := road.DegreeStats()
	if avg < 1.8 || avg > 2.6 {
		t.Fatalf("road avg degree = %v, want ≈2.1", avg)
	}
	if !connected(road) {
		t.Fatal("road network must be connected")
	}
	kmer, _ := KmerGraph(5000, 3)
	_, _, avg = kmer.DegreeStats()
	if avg < 1.8 || avg > 2.6 {
		t.Fatalf("kmer avg degree = %v, want ≈2.1", avg)
	}
}

func TestWebGraphStructure(t *testing.T) {
	g, member := WebGraph(2000, 16, 17)
	if len(member) != g.NumVertices() {
		t.Fatal("membership length mismatch")
	}
	_, max, avg := g.DegreeStats()
	if avg < 8 || avg > 20 {
		t.Fatalf("web avg degree %v, want ≈16", avg)
	}
	if max < uint32(3*avg) {
		t.Fatalf("web degrees not skewed: max %d avg %.1f", max, avg)
	}
	// Strong community structure: ≥90% of edges intra.
	var intra, total int
	for i := 0; i < g.NumVertices(); i++ {
		es, _ := g.Neighbors(uint32(i))
		for _, e := range es {
			total++
			if member[i] == member[e] {
				intra++
			}
		}
	}
	if frac := float64(intra) / float64(total); frac < 0.85 {
		t.Fatalf("web intra fraction %.2f too low", frac)
	}
}

func TestRandomGeometricLocality(t *testing.T) {
	g := RandomGeometric(1000, 0.06, 12)
	if g.NumVertices() != 1000 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	_, _, avg := g.DegreeStats()
	// Expected degree ≈ nπr² ≈ 11.3; allow wide tolerance.
	if avg < 6 || avg > 17 {
		t.Fatalf("rgg avg degree = %v", avg)
	}
}

func TestPowerLawSizesSumAndBounds(t *testing.T) {
	r := newRNG(1)
	sizes := powerLawSizes(r, 10000, 50, 10, 2000, 2.0)
	if len(sizes) != 50 {
		t.Fatalf("len = %d", len(sizes))
	}
	sum := 0
	for _, s := range sizes {
		if s < 1 {
			t.Fatalf("size %d < 1", s)
		}
		sum += s
	}
	if sum != 10000 {
		t.Fatalf("sizes sum to %d, want 10000", sum)
	}
}

func TestMembershipNumCommunities(t *testing.T) {
	m := Membership{0, 1, 1, 5}
	if m.NumCommunities() != 3 {
		t.Fatalf("got %d", m.NumCommunities())
	}
}

func TestRMATCustomParameters(t *testing.T) {
	// Uniform parameters degenerate towards an Erdős–Rényi-like graph:
	// max degree should stay near the average (no heavy skew).
	g := RMAT(9, 2000, 0.25, 0.25, 0.25, 5)
	_, max, avg := g.DegreeStats()
	if float64(max) > 8*avg {
		t.Fatalf("uniform RMAT unexpectedly skewed: max %d avg %.1f", max, avg)
	}
}

func TestRandomGeometricDegenerateRadius(t *testing.T) {
	// Radius ≥ 1 covers the whole torus: the cell grid collapses to a
	// single cell and the graph becomes complete.
	g := RandomGeometric(20, 1.5, 3)
	if g.NumUndirectedEdges() != 20*19/2 {
		t.Fatalf("edges = %d, want complete graph", g.NumUndirectedEdges())
	}
}

func TestGridDegenerate(t *testing.T) {
	g := Grid(1, 1)
	if g.NumVertices() != 1 || g.NumArcs() != 0 {
		t.Fatal("1x1 grid wrong")
	}
	g = Grid(1, 5) // degenerates to a path
	if g.NumUndirectedEdges() != 4 {
		t.Fatalf("1x5 grid edges = %d", g.NumUndirectedEdges())
	}
}

func TestBarabasiAlbertSmallN(t *testing.T) {
	// n ≤ k collapses to a complete graph.
	g := BarabasiAlbert(3, 5, 1)
	if g.NumUndirectedEdges() != 3 {
		t.Fatalf("BA(3,5) edges = %d, want K3", g.NumUndirectedEdges())
	}
	// k < 1 is clamped to 1.
	g = BarabasiAlbert(50, 0, 2)
	if !connected(g) {
		t.Fatal("BA with k clamped to 1 must still connect")
	}
}
