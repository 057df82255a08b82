// Integration tests exercising the public API end to end, the way a
// downstream user would.
package gveleiden_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gveleiden"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	// Build → detect → evaluate → persist → reload, all through the
	// public surface.
	g, truth := gveleiden.GeneratePlanted(1500, 12, 12, 0.25, 3)
	res := gveleiden.Leiden(g, gveleiden.DefaultOptions())
	if res.NumCommunities < 2 {
		t.Fatalf("|Γ| = %d", res.NumCommunities)
	}
	if res.Modularity != gveleiden.Modularity(g, res.Membership) {
		t.Fatal("Result.Modularity inconsistent with Modularity()")
	}
	if nmi := gveleiden.NMI(res.Membership, truth); nmi < 0.85 {
		t.Fatalf("NMI vs planted = %.3f", nmi)
	}
	if ds := gveleiden.CountDisconnected(g, res.Membership, 0); ds.Disconnected != 0 {
		t.Fatalf("%d disconnected", ds.Disconnected)
	}
}

func TestPublicAPIBuilderAndLoad(t *testing.T) {
	b := gveleiden.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	if g.NumVertices() != 4 || g.NumUndirectedEdges() != 3 {
		t.Fatal("builder surface broken")
	}
	edges := []gveleiden.Edge{{U: 0, V: 1, W: 2}}
	g2 := gveleiden.FromEdges(2, edges)
	if g2.ArcWeight(0, 1) != 2 {
		t.Fatal("FromEdges surface broken")
	}
	g3 := gveleiden.FromAdjacency([][]uint32{{1}, {0}})
	if g3.NumUndirectedEdges() != 1 {
		t.Fatal("FromAdjacency surface broken")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := gveleiden.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != 3 {
		t.Fatal("LoadGraph surface broken")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	web, memb := gveleiden.GenerateWeb(500, 10, 1)
	if web.NumVertices() != 500 || len(memb) != 500 {
		t.Fatal("GenerateWeb broken")
	}
	soc, _ := gveleiden.GenerateSocial(400, 10, 8, 0.3, 2)
	if soc.NumVertices() != 400 {
		t.Fatal("GenerateSocial broken")
	}
	if gveleiden.GenerateRoad(300, 3).NumVertices() < 300 {
		t.Fatal("GenerateRoad broken")
	}
	if gveleiden.GenerateKmer(300, 4).NumVertices() != 300 {
		t.Fatal("GenerateKmer broken")
	}
}

func TestPublicAPILouvainVsLeiden(t *testing.T) {
	g, _ := gveleiden.GenerateWeb(2000, 12, 5)
	opt := gveleiden.DefaultOptions()
	lou := gveleiden.Louvain(g, opt)
	lei := gveleiden.Leiden(g, opt)
	if lou.NumCommunities < 1 || lei.NumCommunities < 1 {
		t.Fatal("no communities found")
	}
	if lei.Modularity < lou.Modularity-0.05 {
		t.Fatalf("Leiden Q %.4f far below Louvain %.4f", lei.Modularity, lou.Modularity)
	}
}

func TestPublicAPIDynamicFlow(t *testing.T) {
	g, _ := gveleiden.GenerateSocial(2000, 12, 16, 0.3, 6)
	opt := gveleiden.DefaultOptions()
	res := gveleiden.Leiden(g, opt)

	delta := gveleiden.RandomDelta(g, 30, 20, 7)
	gNew, err := gveleiden.ApplyDelta(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	dyn := gveleiden.LeidenDynamic(gNew, res.Membership, delta, gveleiden.DynamicFrontier, opt)
	if len(dyn.Membership) != gNew.NumVertices() {
		t.Fatal("dynamic membership wrong length")
	}
	static := gveleiden.Leiden(gNew, opt)
	if dyn.Modularity < static.Modularity-0.03 {
		t.Fatalf("dynamic Q %.4f below static %.4f", dyn.Modularity, static.Modularity)
	}
}

func TestPublicAPICPMObjective(t *testing.T) {
	g, _ := gveleiden.GenerateWeb(1000, 10, 9)
	opt := gveleiden.DefaultOptions()
	opt.Objective = gveleiden.ObjectiveCPM
	opt.Resolution = 0.05
	res := gveleiden.Leiden(g, opt)
	if res.Quality != gveleiden.CPM(g, res.Membership, 0.05) {
		t.Fatal("Result.Quality inconsistent with CPM()")
	}
	if ds := gveleiden.CountDisconnected(g, res.Membership, 0); ds.Disconnected != 0 {
		t.Fatalf("%d disconnected under CPM", ds.Disconnected)
	}
}

func TestPublicAPIOptionKnobs(t *testing.T) {
	g, _ := gveleiden.GenerateWeb(800, 10, 11)
	opt := gveleiden.DefaultOptions()
	opt.Refinement = gveleiden.RefineRandom
	opt.Labels = gveleiden.LabelRefine
	opt.Variant = gveleiden.VariantHeavy
	opt.Threads = 3
	res := gveleiden.Leiden(g, opt)
	if res.NumCommunities < 1 || res.Modularity < 0.3 {
		t.Fatalf("knob combination broke detection: |Γ|=%d Q=%.3f",
			res.NumCommunities, res.Modularity)
	}
}

// TestPublicAPIMalformedGraph: NewServer and ApplyDelta return the
// layout error for a graph whose offsets, edges, weights or holey
// counts do not fit together, where both used to panic. A valid holey
// graph still loads, and an arc target past the vertex count still
// grows the graph.
func TestPublicAPIMalformedGraph(t *testing.T) {
	cfg := gveleiden.DefaultServeConfig()
	cfg.Options.Threads = 2
	for _, tc := range []struct {
		name string
		g    *gveleiden.Graph
		want string
	}{
		{"empty", &gveleiden.Graph{}, "offsets array must have length ≥ 1"},
		{"offsets not monotone", &gveleiden.Graph{Offsets: []uint32{0, 2, 1, 2}, Edges: []uint32{1, 0}, Weights: []float32{1, 1}}, "offsets not monotone at vertex 1"},
		{"final offset past storage", &gveleiden.Graph{Offsets: []uint32{0, 1, 5}, Edges: []uint32{1, 0}, Weights: []float32{1, 1}}, "final offset 5 exceeds edge storage 2"},
		{"weights short", &gveleiden.Graph{Offsets: []uint32{0, 1, 2}, Edges: []uint32{1, 0}, Weights: []float32{1}}, "edges/weights length mismatch: 2 vs 1"},
		{"holey count past slot", &gveleiden.Graph{Offsets: []uint32{0, 1, 2}, Edges: []uint32{1, 0}, Weights: []float32{1, 1}, Counts: []uint32{3, 1}}, "holey count overflows slot of vertex 0"},
	} {
		if _, err := gveleiden.ApplyDelta(tc.g, gveleiden.Delta{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ApplyDelta error %v, want %q", tc.name, err, tc.want)
		}
		s, err := gveleiden.NewServer(tc.g, cfg)
		if err == nil {
			s.Close(context.Background())
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewServer error %v, want %q", tc.name, err, tc.want)
		}
	}

	for _, tc := range []struct {
		name     string
		g        *gveleiden.Graph
		vertices int
	}{
		// Edge {0,1} with a junk slot after each row.
		{"holey", &gveleiden.Graph{Offsets: []uint32{0, 2, 4}, Edges: []uint32{1, 7, 0, 7}, Weights: []float32{1, 0, 1, 0}, Counts: []uint32{1, 1}}, 2},
		// Arc (0,5) on a 2-vertex graph: the upper triangle grows it to 6.
		{"target past the end", &gveleiden.Graph{Offsets: []uint32{0, 1, 1}, Edges: []uint32{5}, Weights: []float32{1}}, 6},
	} {
		g, err := gveleiden.ApplyDelta(tc.g, gveleiden.Delta{})
		if err != nil || g.NumVertices() != tc.vertices || g.NumUndirectedEdges() != 1 {
			t.Fatalf("%s: ApplyDelta gave %v, %v; want %d vertices and one edge", tc.name, g, err, tc.vertices)
		}
		s, err := gveleiden.NewServer(tc.g, cfg)
		if err != nil {
			t.Fatalf("%s: NewServer: %v", tc.name, err)
		}
		if n := s.Snapshot().Graph.NumVertices(); n != tc.vertices {
			t.Errorf("%s: the server serves %d vertices, want %d", tc.name, n, tc.vertices)
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
