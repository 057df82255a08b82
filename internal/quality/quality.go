// Package quality implements the community-quality machinery of the
// paper: modularity (Equation 1), delta-modularity (Equation 2), the
// Constant Potts Model alternative quality function (§2), partition
// validation and statistics, and the disconnected-community counter from
// the paper's extended report.
package quality

// The modularity/CPM reductions below run on the worker pool with
// bodies that must stay allocation-free.
//gvevet:hotpath

import (
	"fmt"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// Modularity returns Q of the given membership on g (Equation 1):
//
//	Q = Σ_c [ σ_c/(2m) − (Σ_c/(2m))² ]
//
// with σ_c the weight of arcs internal to community c (each undirected
// internal edge counted via both arcs, self-loops once) and Σ_c the
// total weighted degree of c. Computations are float64 throughout.
func Modularity(g *graph.CSR, membership []uint32) float64 {
	return ModularityResolution(g, membership, 1.0)
}

// ModularityResolution returns generalized modularity with resolution
// parameter γ (γ=1 is classic modularity; larger γ favours smaller
// communities, mitigating the resolution limit).
func ModularityResolution(g *graph.CSR, membership []uint32, gamma float64) float64 {
	idx, k := denseLabels(g.NumVertices(), membership)
	return Accumulate(g, idx, k).Modularity(gamma)
}

// CPM returns the Constant Potts Model quality of the membership:
//
//	H = Σ_c [ e_c − γ·n_c(n_c−1)/2 ]
//
// with e_c the undirected internal edge weight of c and n_c its size.
// CPM is resolution-limit-free (Traag et al. 2011); it is normalized
// here by total edge weight so values are comparable across graphs.
func CPM(g *graph.CSR, membership []uint32, gamma float64) float64 {
	idx, k := denseLabels(g.NumVertices(), membership)
	return Accumulate(g, idx, k).CPM(gamma)
}

// denseLabels renumbers the labels of the first n vertices densely, in
// order of first occurrence, for Accumulate.
func denseLabels(n int, membership []uint32) ([]uint32, int) {
	dense := make(map[uint32]uint32, 256)
	idx := make([]uint32, n)
	for i := 0; i < n; i++ {
		c := membership[i]
		d, ok := dense[c]
		if !ok {
			d = uint32(len(dense))
			dense[c] = d
		}
		idx[i] = d
	}
	return idx, len(dense)
}

// Sums are the per-community totals of one partition that modularity
// and CPM are computed from. Accumulate builds them in one sweep in
// vertex order, and the reductions add the communities up in order of
// first occurrence. Every labelling of the same partition therefore
// gives the same bits, and a caller whose labels are already dense
// needs no label map.
type Sums struct {
	internal []float64 // internal arc weight per community (σ_c; self-loops once)
	total    []float64 // total weighted degree per community (Σ_c)
	size     []float64 // vertices per community (n_c)
	order    []uint32  // communities in order of first occurrence
	twoM     float64   // total arc weight
}

// Accumulate sums, for labels dense in [0, k) over g's vertices, each
// community's internal arc weight, weighted degree and size.
func Accumulate(g *graph.CSR, labels []uint32, k int) Sums {
	s := Sums{
		internal: make([]float64, k),
		total:    make([]float64, k),
		size:     make([]float64, k),
		order:    make([]uint32, 0, k),
	}
	for i := 0; i < g.NumVertices(); i++ {
		ci := labels[i]
		if s.size[ci] == 0 {
			s.order = append(s.order, ci)
		}
		s.size[ci]++
		es, ws := g.Neighbors(uint32(i))
		for j, e := range es {
			w := float64(ws[j])
			s.twoM += w
			s.total[ci] += w
			if labels[e] == ci {
				s.internal[ci] += w
			}
		}
	}
	return s
}

// Modularity returns generalized modularity with resolution γ
// (Equation 1): Q = Σ_c [ σ_c/(2m) − γ(Σ_c/(2m))² ].
func (s Sums) Modularity(gamma float64) float64 {
	if s.twoM == 0 {
		return 0
	}
	var q float64
	for _, c := range s.order {
		frac := s.total[c] / s.twoM
		q += s.internal[c]/s.twoM - gamma*frac*frac
	}
	return q
}

// CPM returns the Constant Potts Model quality with density threshold
// γ, normalized by the total edge weight m.
func (s Sums) CPM(gamma float64) float64 {
	if s.twoM == 0 {
		return 0
	}
	var h float64
	for _, c := range s.order {
		h += s.internal[c]/2 - gamma*s.size[c]*(s.size[c]-1)/2
	}
	return h / (s.twoM / 2)
}

// DeltaModularity returns ΔQ of moving vertex i from community d to c
// (Equation 2):
//
//	ΔQ = (K_{i→c} − K_{i→d})/m − K_i(K_i + Σ_c − Σ_d)/(2m²)
//
// where kic/kid are the weights of i's edges towards c/d (excluding the
// self-loop), ki is i's weighted degree, and sc/sd are the total edge
// weights of c/d with i still counted in d.
func DeltaModularity(kic, kid, ki, sc, sd, m float64) float64 {
	return DeltaModularityResolution(kic, kid, ki, sc, sd, m, 1.0)
}

// DeltaModularityResolution is DeltaModularity with resolution γ.
func DeltaModularityResolution(kic, kid, ki, sc, sd, m, gamma float64) float64 {
	return (kic-kid)/m - gamma*ki*(ki+sc-sd)/(2*m*m)
}

// ValidatePartition checks that membership is a valid community
// assignment for g: correct length and every label within [0, n).
func ValidatePartition(g *graph.CSR, membership []uint32) error {
	n := g.NumVertices()
	if len(membership) != n {
		return fmt.Errorf("quality: membership length %d != vertex count %d", len(membership), n)
	}
	for i, c := range membership {
		if int(c) >= n {
			return fmt.Errorf("quality: vertex %d has out-of-range community %d", i, c)
		}
	}
	return nil
}

// CountCommunities returns the number of distinct labels in membership.
func CountCommunities(membership []uint32) int {
	seen := make(map[uint32]struct{}, 256)
	for _, c := range membership {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// CommunitySizes returns the size of each distinct community.
func CommunitySizes(membership []uint32) map[uint32]int {
	sizes := make(map[uint32]int, 256)
	for _, c := range membership {
		sizes[c]++
	}
	return sizes
}

// IsRefinementOf reports whether partition fine is a refinement of
// partition coarse: every fine community lies entirely inside one coarse
// community. This is the key structural invariant of the Leiden
// refinement phase (each refined sub-community respects its community
// bound).
func IsRefinementOf(fine, coarse []uint32) bool {
	if len(fine) != len(coarse) {
		return false
	}
	rep := make(map[uint32]uint32, 256) // fine community → coarse community
	for i := range fine {
		if c, ok := rep[fine[i]]; ok {
			if c != coarse[i] {
				return false
			}
		} else {
			rep[fine[i]] = coarse[i]
		}
	}
	return true
}

// DisconnectedStats describes the output of CountDisconnected.
type DisconnectedStats struct {
	Communities  int     // number of communities
	Disconnected int     // communities whose induced subgraph is not connected
	Fraction     float64 // Disconnected / Communities
}

// CountDisconnected counts communities whose induced subgraph is
// internally disconnected — the algorithm from the paper's extended
// report, used for Figure 6(d). It groups vertices by community with a
// counting sort, then BFS-checks each community in parallel (each worker
// reuses its own scratch). Runs on the shared default pool; use
// CountDisconnectedOn to supply a dedicated one.
func CountDisconnected(g *graph.CSR, membership []uint32, threads int) DisconnectedStats {
	return CountDisconnectedOn(nil, g, membership, threads)
}

// CountDisconnectedOn is CountDisconnected executing its parallel
// BFS sweep on the given pool (nil = default pool).
func CountDisconnectedOn(p *parallel.Pool, g *graph.CSR, membership []uint32, threads int) DisconnectedStats {
	n := g.NumVertices()
	if n == 0 {
		return DisconnectedStats{}
	}
	if p == nil {
		p = parallel.Default()
	}
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	// Renumber labels densely and bucket vertices per community.
	dense := make(map[uint32]uint32, 256)
	for _, c := range membership {
		if _, ok := dense[c]; !ok {
			dense[c] = uint32(len(dense))
		}
	}
	k := len(dense)
	counts := make([]uint32, k+1)
	for _, c := range membership {
		counts[dense[c]+1]++
	}
	for i := 0; i < k; i++ {
		counts[i+1] += counts[i]
	}
	bucket := make([]uint32, n)
	cursor := append([]uint32(nil), counts[:k]...)
	for i := 0; i < n; i++ {
		c := dense[membership[i]]
		bucket[cursor[c]] = uint32(i)
		cursor[c]++
	}
	// Padded counters: adjacent workers otherwise bounce the cache line
	// holding their increment targets.
	bad := make([]parallel.Padded[int64], threads)
	scratches := make([]*graph.SubsetScratch, threads)
	for t := range scratches {
		scratches[t] = graph.NewSubsetScratch(n)
	}
	p.ForEach(k, threads, 8, func(c, tid int) {
		members := bucket[counts[c]:counts[c+1]]
		if !scratches[tid].SubsetConnected(g, members) {
			bad[tid].V++
		}
	})
	var total int64
	for i := range bad {
		total += bad[i].V
	}
	frac := 0.0
	if k > 0 {
		frac = float64(total) / float64(k)
	}
	return DisconnectedStats{Communities: k, Disconnected: int(total), Fraction: frac}
}
