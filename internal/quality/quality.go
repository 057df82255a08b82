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
// membership), searching the communities' components in parallel on
// pool p (nil = default pool) with ComponentsOn. Communities counts
// the nonempty communities.
func CountDisconnectedIn(p *parallel.Pool, g *graph.CSR, membership []uint32, m Members, threads int) DisconnectedStats {
	n := len(membership)
	_, split := ComponentsOn(p, threads, g, membership, m.Offsets, m.Vertices, make([]bool, n), make([]uint32, n), nil)
	communities := 0
	for c := 0; c < m.Len(); c++ {
		if m.Offsets[c+1] > m.Offsets[c] {
			communities++
		}
	}
	frac := 0.0
	if communities > 0 {
		frac = float64(split) / float64(communities)
	}
	return DisconnectedStats{Communities: communities, Disconnected: int(split), Fraction: frac}
}

// ComponentsOn searches the connected components of label groups on
// pool p (nil = default pool) with up to threads participants (≤ 0:
// the default count). It is the one component search of the module:
// the run's connectivity splits, the disconnected-community counter
// and AnalyzeCommunities all call it.
//
// Group c is the vertices in vtx[off[c]:off[c+1]] that carry label c.
// A listed vertex with another label is in no group and none of its
// entries is touched; every vertex labelled c must be listed in group
// c. A breadth-first search runs from each grouped vertex not yet
// reached, over arcs to vertices of the same label, and marks what it
// reaches in seen, which must read false for every grouped vertex.
// Group c queues in its own segment queue[off[c]:off[c+1]], so queue
// holds one slot per listed vertex. The groups are disjoint, so each
// group's task touches only its own vertices' entries and the groups
// run without atomics. A group's scan of its list stops once its
// searches have reached every listed vertex: a connected group whose
// list holds only its own vertices costs one search.
//
// When out is non-nil, each grouped vertex's entry is set to the
// smallest vertex of its component. ComponentsOn returns the number of
// components beyond one per group (extra) and the number of groups
// with more than one component (split).
func ComponentsOn(p *parallel.Pool, threads int, g *graph.CSR, labels, off, vtx []uint32, seen []bool, queue, out []uint32) (extra, split int64) {
	if p == nil {
		p = parallel.Default()
	}
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	// Padded counters: adjacent workers otherwise bounce the cache line
	// holding their increment targets.
	extras := make([]parallel.Padded[int64], threads)
	splits := make([]parallel.Padded[int64], threads)
	p.For(len(off)-1, threads, 1, func(lo, hi, tid int) {
		var ex, sp int64
		for c := lo; c < hi; c++ {
			list := vtx[off[c]:off[c+1]]
			q := queue[off[c]:off[c+1]]
			comps, reached := int64(0), 0
			for _, s := range list {
				if labels[s] != uint32(c) || seen[s] {
					continue
				}
				comps++
				seen[s], q[0] = true, s
				root, size := s, 1
				for head := 0; head < size; head++ {
					es, _ := g.Neighbors(q[head])
					for _, e := range es {
						if labels[e] == uint32(c) && !seen[e] {
							seen[e] = true
							q[size] = e
							size++
							root = min(root, e)
						}
					}
				}
				if out != nil {
					for _, v := range q[:size] {
						out[v] = root
					}
				}
				if reached += size; reached == len(list) {
					break
				}
			}
			if comps > 1 {
				ex += comps - 1
				sp++
			}
		}
		extras[tid].V += ex
		splits[tid].V += sp
	})
	for i := range extras {
		extra += extras[i].V
		split += splits[i].V
	}
	return extra, split
}
