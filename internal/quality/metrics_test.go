package quality

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
)

func TestAnalyzeCommunitiesTrianglePair(t *testing.T) {
	g := trianglePair() // two triangles joined by edge 2-3
	member := []uint32{0, 0, 0, 1, 1, 1}
	ms := AnalyzeCommunities(g, member)
	if len(ms) != 2 {
		t.Fatalf("got %d communities", len(ms))
	}
	for _, m := range ms {
		if m.Size != 3 {
			t.Fatalf("size = %d", m.Size)
		}
		if m.Internal != 3 { // 3 undirected internal edges
			t.Fatalf("internal = %v", m.Internal)
		}
		if m.Cut != 1 { // the single bridge
			t.Fatalf("cut = %v", m.Cut)
		}
		if m.Volume != 7 { // 2·3 internal + 1 bridge arc
			t.Fatalf("volume = %v", m.Volume)
		}
		if math.Abs(m.Density-1) > 1e-12 { // triangles are cliques
			t.Fatalf("density = %v", m.Density)
		}
		// conductance = 1 / min(7, 14-7) = 1/7
		if math.Abs(m.Conductance-1.0/7.0) > 1e-12 {
			t.Fatalf("conductance = %v", m.Conductance)
		}
		if !m.Connected {
			t.Fatal("triangle reported disconnected")
		}
	}
}

func TestAnalyzeCommunitiesDetectsDisconnection(t *testing.T) {
	// Path 0-1-2; community {0,2} is internally disconnected.
	g := graph.FromAdjacency([][]uint32{{1}, {0, 2}, {1}})
	ms := AnalyzeCommunities(g, []uint32{0, 1, 0})
	var found bool
	for _, m := range ms {
		if m.Size == 2 && !m.Connected {
			found = true
		}
	}
	if !found {
		t.Fatal("disconnected community not flagged")
	}
}

func TestAnalyzePartitionTrianglePair(t *testing.T) {
	g := trianglePair()
	member := []uint32{0, 0, 0, 1, 1, 1}
	pm := AnalyzePartition(g, member)
	if pm.Communities != 2 {
		t.Fatalf("communities = %d", pm.Communities)
	}
	if math.Abs(pm.Modularity-5.0/14.0) > 1e-12 {
		t.Fatalf("modularity = %v", pm.Modularity)
	}
	// Coverage: 6 of 7 edges intra.
	if math.Abs(pm.Coverage-6.0/7.0) > 1e-12 {
		t.Fatalf("coverage = %v", pm.Coverage)
	}
	// Performance: 15 pairs total; intra pairs 6, all are edges; inter
	// pairs 9, one (2-3) is an edge → (6 + 8)/15.
	if math.Abs(pm.Performance-14.0/15.0) > 1e-12 {
		t.Fatalf("performance = %v", pm.Performance)
	}
	if pm.MinSize != 3 || pm.MaxSize != 3 || pm.MedianSize != 3 {
		t.Fatalf("sizes = %d/%d/%d", pm.MinSize, pm.MedianSize, pm.MaxSize)
	}
	if pm.Disconnected != 0 {
		t.Fatalf("disconnected = %d", pm.Disconnected)
	}
	if math.Abs(pm.AvgConductance-1.0/7.0) > 1e-12 {
		t.Fatalf("avg conductance = %v", pm.AvgConductance)
	}
}

func TestAnalyzePartitionEmpty(t *testing.T) {
	pm := AnalyzePartition(graph.FromAdjacency(nil), nil)
	if pm.Communities != 0 {
		t.Fatal("empty partition metrics wrong")
	}
}

func TestConductance(t *testing.T) {
	g := trianglePair()
	// One triangle: cut 1, vol 7, 2m=14 → 1/7.
	if got := Conductance(g, []uint32{0, 1, 2}); math.Abs(got-1.0/7.0) > 1e-12 {
		t.Fatalf("conductance = %v", got)
	}
	// Whole graph: no cut.
	if got := Conductance(g, []uint32{0, 1, 2, 3, 4, 5}); got != 0 {
		t.Fatalf("full-set conductance = %v", got)
	}
	// Single vertex 0: cut 2, vol 2 → 1.
	if got := Conductance(g, []uint32{0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("singleton conductance = %v", got)
	}
	if got := Conductance(g, nil); got != 0 {
		t.Fatal("empty set conductance must be 0")
	}
}

func TestAnalyzeSingletons(t *testing.T) {
	g := trianglePair()
	member := []uint32{0, 1, 2, 3, 4, 5}
	pm := AnalyzePartition(g, member)
	if pm.Coverage != 0 {
		t.Fatalf("singleton coverage = %v", pm.Coverage)
	}
	if pm.Communities != 6 || pm.MaxSize != 1 {
		t.Fatal("singleton stats wrong")
	}
	// All pairs are inter; the 7 edges are misclassified: (0 + (15-7))/15.
	if math.Abs(pm.Performance-8.0/15.0) > 1e-12 {
		t.Fatalf("performance = %v", pm.Performance)
	}
}

// analyzeCommunitiesReference is AnalyzeCommunities as it was before
// the shared component search: a label map, per-community member
// appends and one serial search per community (subsetComponents, which
// stands in for graph.SubsetScratch's BFS).
func analyzeCommunitiesReference(g *graph.CSR, membership []uint32) []CommunityMetrics {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	dense := make(map[uint32]uint32, 256)
	idx := make([]uint32, n)
	var labels []uint32
	for i := 0; i < n; i++ {
		c := membership[i]
		d, ok := dense[c]
		if !ok {
			d = uint32(len(dense))
			dense[c] = d
			labels = append(labels, c)
		}
		idx[i] = d
	}
	k := len(dense)
	ms := make([]CommunityMetrics, k)
	var twoM float64
	for i := 0; i < n; i++ {
		ci := idx[i]
		ms[ci].Size++
		es, ws := g.Neighbors(uint32(i))
		for kk, e := range es {
			w := float64(ws[kk])
			twoM += w
			ms[ci].Volume += w
			if idx[e] == ci {
				ms[ci].Internal += w
			} else {
				ms[ci].Cut += w
			}
		}
	}
	members := make([][]uint32, k)
	for i := 0; i < n; i++ {
		members[idx[i]] = append(members[idx[i]], uint32(i))
	}
	for c := range ms {
		ms[c].ID = labels[c]
		ms[c].Internal /= 2 // arcs → undirected weight
		if ms[c].Size > 1 {
			pairs := float64(ms[c].Size) * float64(ms[c].Size-1) / 2
			ms[c].Density = ms[c].Internal / pairs
		}
		denom := math.Min(ms[c].Volume, twoM-ms[c].Volume)
		if denom > 0 {
			ms[c].Conductance = ms[c].Cut / denom
		}
		_, comps := subsetComponents(g, members[c])
		ms[c].Connected = comps <= 1
	}
	return ms
}

// TestAnalyzeCommunitiesMatchesReference: on generated graphs with
// planted disconnected communities, under dense labels, labels with
// gaps below the vertex count and labels at and past it, every field
// of every community equals the reference's bit for bit (%v prints a
// float64 in the shortest form that reads back to the same bits), and
// AnalyzePartition counts the reference's disconnected communities.
func TestAnalyzeCommunitiesMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 5))
		var g *graph.CSR
		if seed%2 == 0 {
			g, _ = gen.WebGraph(300+rng.IntN(1500), 8, seed)
		} else {
			g, _ = gen.RoadNetwork(300+rng.IntN(1500), seed)
		}
		n := g.NumVertices()
		dense, k := plantedPieces(g, rng)
		gaps, far := make([]uint32, n), make([]uint32, n)
		for v, c := range dense {
			gaps[v] = (k - 1 - c) * uint32(n/int(k))
			far[v] = uint32(n) + 7*c
		}
		for _, tc := range []struct {
			name   string
			labels []uint32
		}{{"dense", dense}, {"gaps", gaps}, {"labels ≥ n", far}} {
			want := analyzeCommunitiesReference(g, tc.labels)
			got := AnalyzeCommunities(g, tc.labels)
			if len(got) != len(want) {
				t.Fatalf("seed %d, %s: %d communities, want %d", seed, tc.name, len(got), len(want))
			}
			disconnected := 0
			for c := range want {
				if gs, ws := fmt.Sprintf("%+v", got[c]), fmt.Sprintf("%+v", want[c]); gs != ws {
					t.Fatalf("seed %d, %s: community %d is %s, want %s", seed, tc.name, c, gs, ws)
				}
				if !want[c].Connected {
					disconnected++
				}
			}
			if disconnected == 0 {
				t.Fatalf("seed %d, %s: no disconnected community planted", seed, tc.name)
			}
			if pm := AnalyzePartition(g, tc.labels); pm.Disconnected != disconnected || pm.Communities != len(want) {
				t.Fatalf("seed %d, %s: partition %d of %d disconnected, want %d of %d", seed, tc.name, pm.Disconnected, pm.Communities, disconnected, len(want))
			}
		}
	}
}
