package graph_test

import (
	"testing"

	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// components labels every vertex of g with the smallest vertex of its
// connected component, searching the whole graph as one group with
// quality.ComponentsOn, and returns the labels and the component count.
func components(g *graph.CSR) ([]uint32, int) {
	n := g.NumVertices()
	if n == 0 {
		return nil, 0
	}
	vtx := make([]uint32, n)
	for v := range vtx {
		vtx[v] = uint32(v)
	}
	comp := make([]uint32, n)
	extra, _ := quality.ComponentsOn(nil, 1, g, make([]uint32, n), []uint32{0, uint32(n)}, vtx, make([]bool, n), make([]uint32, n), comp)
	return comp, int(extra) + 1
}

// subsetConnected reports whether the subgraph of g induced by subset
// is connected, searching subset as the one group of
// quality.ComponentsOn.
func subsetConnected(g *graph.CSR, subset []uint32) bool {
	n := g.NumVertices()
	labels := make([]uint32, n)
	for v := range labels {
		labels[v] = 1 // no group
	}
	for _, v := range subset {
		labels[v] = 0
	}
	_, split := quality.ComponentsOn(nil, 1, g, labels, []uint32{0, uint32(len(subset))}, subset, make([]bool, n), make([]uint32, len(subset)), nil)
	return split == 0
}

func TestConnectedComponents(t *testing.T) {
	// Two components: a path 0-1-2 and an edge 3-4; isolated vertex 5.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g := b.Build()
	comp, count := components(g)
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("path split across components")
	}
	if comp[3] != comp[4] {
		t.Fatal("edge split across components")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("isolated vertex merged")
	}
}

func TestIsConnected(t *testing.T) {
	isConnected := func(g *graph.CSR) bool {
		return quality.CountDisconnected(g, make([]uint32, g.NumVertices()), 1).Disconnected == 0
	}
	if !isConnected(graph.FromAdjacency([][]uint32{{1}, {0, 2}, {1}})) {
		t.Fatal("path not connected?")
	}
	if isConnected(graph.FromAdjacency([][]uint32{{1}, {0}, {3}, {2}})) {
		t.Fatal("two components reported connected")
	}
	if !isConnected(graph.FromAdjacency(nil)) {
		t.Fatal("empty graph must count as connected")
	}
	if !isConnected(graph.FromAdjacency([][]uint32{{}})) {
		t.Fatal("singleton must count as connected")
	}
}

func TestSubsetConnected(t *testing.T) {
	// 0-1-2-3 path plus isolated-ish 4 connected only to 0.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(0, 4, 1)
	g := b.Build()

	if !subsetConnected(g, []uint32{0, 1, 2}) {
		t.Fatal("contiguous path subset must be connected")
	}
	if subsetConnected(g, []uint32{0, 2}) {
		t.Fatal("{0,2} is disconnected within the subset (1 missing)")
	}
	if !subsetConnected(g, []uint32{1, 2, 3}) {
		t.Fatal("suffix path must be connected")
	}
	if subsetConnected(g, []uint32{4, 3}) {
		t.Fatal("{3,4} are far apart")
	}
	if !subsetConnected(g, nil) || !subsetConnected(g, []uint32{2}) {
		t.Fatal("empty/singleton subsets are connected by definition")
	}
}
