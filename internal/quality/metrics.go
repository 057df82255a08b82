package quality

import (
	"math"
	"slices"
	"sort"

	"gveleiden/internal/graph"
)

// This file provides the per-community and per-partition quality
// metrics beyond modularity that community-detection evaluations report
// (conductance, coverage, performance), plus per-community summaries.

// CommunityMetrics summarizes one community.
type CommunityMetrics struct {
	ID          uint32  // community label
	Size        int     // member count
	Internal    float64 // undirected internal edge weight
	Cut         float64 // weight of edges leaving the community
	Volume      float64 // Σ_c: total weighted degree of members
	Density     float64 // internal weight / possible pairs
	Conductance float64 // cut / min(volume, 2m − volume)
	Connected   bool    // induced subgraph connected?
}

// PartitionMetrics summarizes a whole clustering.
type PartitionMetrics struct {
	Communities    int
	Modularity     float64
	Coverage       float64 // fraction of edge weight that is intra-community
	Performance    float64 // fraction of vertex pairs classified correctly
	AvgConductance float64
	MaxConductance float64
	MinSize        int
	MaxSize        int
	MedianSize     int
	Disconnected   int
}

// AnalyzeCommunities computes per-community metrics, ordered by
// community label (dense relabeling in first-occurrence order).
func AnalyzeCommunities(g *graph.CSR, membership []uint32) []CommunityMetrics {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	idx, k := denseLabels(n, membership)
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
	// Each member is named after the smallest vertex of its component;
	// a community's first member is its smallest.
	m := IndexMembers(idx)
	name := make([]uint32, n)
	ComponentsOn(nil, 0, g, idx, m.Offsets, m.Vertices, make([]bool, n), make([]uint32, n), name)
	for c := range ms {
		members := m.Of(uint32(c))
		ms[c].ID = membership[members[0]]
		ms[c].Internal /= 2 // arcs → undirected weight
		if ms[c].Size > 1 {
			pairs := float64(ms[c].Size) * float64(ms[c].Size-1) / 2
			ms[c].Density = ms[c].Internal / pairs
		}
		denom := math.Min(ms[c].Volume, twoM-ms[c].Volume)
		if denom > 0 {
			ms[c].Conductance = ms[c].Cut / denom
		}
		ms[c].Connected = !slices.ContainsFunc(members, func(v uint32) bool { return name[v] != members[0] })
	}
	return ms
}

// AnalyzePartition computes whole-partition metrics. The Performance
// metric (correctly classified pairs) is computed exactly from the
// per-community tallies, not by O(n²) enumeration.
func AnalyzePartition(g *graph.CSR, membership []uint32) PartitionMetrics {
	ms := AnalyzeCommunities(g, membership)
	pm := PartitionMetrics{Communities: len(ms)}
	if len(ms) == 0 {
		return pm
	}
	pm.Modularity = Modularity(g, membership)
	n := float64(g.NumVertices())
	var intra, total float64
	var intraPairs float64
	sizes := make([]int, 0, len(ms))
	pm.MinSize = ms[0].Size
	var condSum float64
	for _, m := range ms {
		intra += m.Internal
		total += m.Volume
		intraPairs += float64(m.Size) * float64(m.Size-1) / 2
		sizes = append(sizes, m.Size)
		if m.Size < pm.MinSize {
			pm.MinSize = m.Size
		}
		if m.Size > pm.MaxSize {
			pm.MaxSize = m.Size
		}
		condSum += m.Conductance
		if m.Conductance > pm.MaxConductance {
			pm.MaxConductance = m.Conductance
		}
		if !m.Connected {
			pm.Disconnected++
		}
	}
	if total > 0 {
		pm.Coverage = 2 * intra / total // total == 2m
	}
	pm.AvgConductance = condSum / float64(len(ms))
	sort.Ints(sizes)
	pm.MedianSize = sizes[len(sizes)/2]
	// Performance: (intra pairs that are edges + inter pairs that are
	// non-edges) / all pairs, using unit-weight edge counts.
	allPairs := n * (n - 1) / 2
	if allPairs > 0 {
		edges := float64(g.NumUndirectedEdges())
		intraEdges := countIntraEdges(g, membership)
		interPairs := allPairs - intraPairs
		interEdges := edges - intraEdges
		pm.Performance = (intraEdges + (interPairs - interEdges)) / allPairs
	}
	return pm
}

// countIntraEdges counts undirected edges whose endpoints share a
// community (self-loops count as intra).
func countIntraEdges(g *graph.CSR, membership []uint32) float64 {
	n := g.NumVertices()
	var c float64
	for i := 0; i < n; i++ {
		es, _ := g.Neighbors(uint32(i))
		for _, e := range es {
			if e < uint32(i) {
				continue
			}
			if membership[i] == membership[e] {
				c++
			}
		}
	}
	return c
}

// Conductance returns the conductance of a single vertex set: the
// weight leaving the set over the smaller side's volume. 0 means
// perfectly separated; small values mean good communities.
func Conductance(g *graph.CSR, set []uint32) float64 {
	in := make(map[uint32]struct{}, len(set))
	for _, v := range set {
		in[v] = struct{}{}
	}
	var cut, vol, twoM float64
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		es, ws := g.Neighbors(uint32(i))
		_, inside := in[uint32(i)]
		for k, e := range es {
			w := float64(ws[k])
			twoM += w
			if !inside {
				continue
			}
			vol += w
			if _, ok := in[e]; !ok {
				cut += w
			}
		}
	}
	denom := math.Min(vol, twoM-vol)
	if denom == 0 {
		return 0
	}
	return cut / denom
}
