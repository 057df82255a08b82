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
	"slices"

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
// report, used for Figure 6(d). Runs on the shared default pool; use
// CountDisconnectedOn to supply a dedicated one.
func CountDisconnected(g *graph.CSR, membership []uint32, threads int) DisconnectedStats {
	return CountDisconnectedOn(nil, g, membership, threads)
}

// CountDisconnectedOn is CountDisconnected executing its parallel
// BFS sweep on the given pool (nil = default pool). It groups the
// vertices by community (IndexMembers) and checks each community
// with CountDisconnectedIn. Labels need not be dense; a membership
// with a label at or past the vertex count is renumbered densely
// first.
func CountDisconnectedOn(p *parallel.Pool, g *graph.CSR, membership []uint32, threads int) DisconnectedStats {
	n := g.NumVertices()
	if n == 0 {
		return DisconnectedStats{}
	}
	labels := membership[:n]
	if int(slices.Max(labels)) >= n {
		labels, _ = denseLabels(n, labels)
	}
	return CountDisconnectedIn(p, g, labels, IndexMembers(labels), threads)
}

// Members is the members index of a partition: community c's vertices,
// in ascending order, are Vertices[Offsets[c]:Offsets[c+1]].
type Members struct {
	Offsets  []uint32 // len k+1
	Vertices []uint32 // len n
}

// IndexMembers groups the vertices of membership by community with a
// counting sort, so each community's members come out in ascending
// order. Communities are the labels [0, max label]; a label no vertex
// carries is an empty community. Labels must lie below
// len(membership), as ValidatePartition guarantees.
func IndexMembers(membership []uint32) Members {
	k := 0
	if len(membership) > 0 {
		k = int(slices.Max(membership)) + 1
	}
	off := make([]uint32, k+1)
	for _, c := range membership {
		off[c]++
	}
	var sum uint32
	for c := 0; c < k; c++ {
		off[c], sum = sum, sum+off[c]
	}
	off[k] = sum
	vs := make([]uint32, len(membership))
	for v, c := range membership {
		vs[off[c]] = uint32(v)
		off[c]++
	}
	// Each off[c] has advanced to where community c+1 starts.
	copy(off[1:], off[:k])
	off[0] = 0
	return Members{Offsets: off, Vertices: vs}
}

// Len returns the number of communities, empty ones included.
func (m Members) Len() int { return max(len(m.Offsets)-1, 0) }

// Of returns community c's members in ascending order. The slice
// aliases the index and is capacity-capped, so an append to it
// reallocates instead of writing into community c+1.
func (m Members) Of(c uint32) []uint32 {
	lo, hi := m.Offsets[c], m.Offsets[c+1]
	return m.Vertices[lo:hi:hi]
}

// CountDisconnectedIn counts the disconnected communities of
// membership given its members index m (IndexMembers of the same
// membership), BFS-checking the communities in parallel on pool p (nil
// = default pool). A BFS from a community's first member follows only
// arcs to vertices v with membership[v] == c. The communities are
// disjoint, so one visited array and one queue array shared by all
// workers suffice: community c queues its vertices in its own segment
// of the index's layout. Communities counts the nonempty communities.
func CountDisconnectedIn(p *parallel.Pool, g *graph.CSR, membership []uint32, m Members, threads int) DisconnectedStats {
	if p == nil {
		p = parallel.Default()
	}
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	k := m.Len()
	visited := make([]bool, len(membership))
	queue := make([]uint32, len(membership))
	// Padded counters: adjacent workers otherwise bounce the cache line
	// holding their increment targets.
	bad := make([]parallel.Padded[int64], threads)
	p.ForEach(k, threads, 8, func(c, tid int) {
		members := m.Of(uint32(c))
		if len(members) <= 1 {
			return
		}
		q := queue[m.Offsets[c]:m.Offsets[c+1]]
		q[0], visited[members[0]] = members[0], true
		tail := 1
		for head := 0; head < tail; head++ {
			es, _ := g.Neighbors(q[head])
			for _, v := range es {
				if membership[v] == uint32(c) && !visited[v] {
					visited[v] = true
					q[tail] = v
					tail++
				}
			}
		}
		if tail != len(members) {
			bad[tid].V++
		}
	})
	var total int64
	for i := range bad {
		total += bad[i].V
	}
	communities := 0
	for c := 0; c < k; c++ {
		if m.Offsets[c+1] > m.Offsets[c] {
			communities++
		}
	}
	frac := 0.0
	if communities > 0 {
		frac = float64(total) / float64(communities)
	}
	return DisconnectedStats{Communities: communities, Disconnected: int(total), Fraction: frac}
}
