// Micro-benchmarks for the substrate packages: the primitives whose
// costs compose into the phase timings of Figure 7.
package gveleiden_test

import (
	"testing"

	"gveleiden/internal/color"
	"gveleiden/internal/graph"
	"gveleiden/internal/hashtable"
	"gveleiden/internal/order"
	"gveleiden/internal/parallel"
	"gveleiden/internal/quality"
	"gveleiden/internal/stream"
)

func BenchmarkSubstrate_ExclusiveScan(b *testing.B) {
	a := make([]uint32, 1<<20)
	for i := range a {
		a[i] = uint32(i % 7)
	}
	work := make([]uint32, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, a)
		parallel.Default().ExclusiveScanUint32(work, 0)
	}
	b.SetBytes(int64(len(a) * 4))
}

func BenchmarkSubstrate_HashtableScan(b *testing.B) {
	g := classGraphs(b)["web"]
	h := hashtable.New(g.NumVertices())
	comm := make([]uint32, g.NumVertices())
	for i := range comm {
		comm[i] = uint32(i % 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint32(i % g.NumVertices())
		h.Clear()
		es, ws := g.Neighbors(u)
		for k, e := range es {
			h.Add(comm[e], float64(ws[k]))
		}
	}
}

func BenchmarkSubstrate_Coloring(b *testing.B) {
	g := classGraphs(b)["web"]
	var k int
	for i := 0; i < b.N; i++ {
		k = color.Greedy(g, 0).NumColors
	}
	b.ReportMetric(float64(k), "colors")
}

func BenchmarkSubstrate_BFSOrder(b *testing.B) {
	g := classGraphs(b)["road"]
	for i := 0; i < b.N; i++ {
		order.BFS(g, 0)
	}
}

// BenchmarkSubstrate_StreamSnapshot times the merge of a 1000-pair
// batch into the base; with nothing pending Snapshot costs nothing.
func BenchmarkSubstrate_StreamSnapshot(b *testing.B) {
	g := classGraphs(b)["social"]
	ins, del := graph.RandomDelta(g, 500, 500, 1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := stream.FromCSR(g)
		if err := s.Apply(ins, del); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s.Snapshot()
	}
}

func BenchmarkSubstrate_DisconnectionCounter(b *testing.B) {
	g := classGraphs(b)["kmer"]
	memb := make([]uint32, g.NumVertices())
	for i := range memb {
		memb[i] = uint32(i / 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quality.CountDisconnected(g, memb, 0)
	}
}

func BenchmarkSubstrate_GraphBuild(b *testing.B) {
	g := classGraphs(b)["web"]
	edges := make([]graph.Edge, 0, g.NumUndirectedEdges())
	for i := 0; i < g.NumVertices(); i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if uint32(i) <= e {
				edges = append(edges, graph.Edge{U: uint32(i), V: e, W: ws[k]})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.FromEdges(g.NumVertices(), edges)
	}
}
