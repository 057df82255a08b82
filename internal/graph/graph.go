// Package graph provides the compressed sparse row (CSR) graph
// infrastructure GVE-Leiden operates on: weighted CSR graphs, the
// "holey" CSR variant produced by the aggregation phase, builders,
// generators' target representation, text I/O, and connectivity
// utilities.
//
// The text readers and writers here (Matrix Market, edge list, the
// legacy .bin dump) are the conversion import path: they validate as
// they parse and exist so cmd/gveconvert can ingest external data.
// The storage format proper — the versioned, checksummed, mmap-ready
// .gvecsr container every CLI and the server load through — lives in
// the gvecsr subpackage; see FORMAT.md for the byte-level spec.
//
// Conventions (matching the paper, §3 and §5.1.2):
//
//   - Vertex ids are 32-bit (uint32); edge weights are float32 on the
//     wire and in CSR storage, while all accumulation is float64.
//   - An undirected edge {i,j}, i≠j, is stored as two arcs (i,j) and
//     (j,i), each carrying the full edge weight w.
//   - A self-loop {i,i} is stored as a single arc (i,i). Aggregation
//     folds a community's internal weight into the super-vertex
//     self-loop, so self-loops carry twice the internal undirected
//     weight — exactly the convention under which modularity is
//     preserved across passes.
//   - K_i (weighted degree) is the sum of weights of all arcs out of i,
//     self-loop counted once; m = Σ_i K_i / 2.
package graph

// Builders, generators and I/O must produce identical structures for
// identical inputs — CSR layout feeds everything downstream.
//gvevet:deterministic

import (
	"errors"
	"fmt"
)

// MaxVertices is the largest vertex count supported by the 32-bit id
// configuration.
const MaxVertices = 1 << 31

// CSR is a weighted graph in compressed sparse row form. When Counts is
// nil the representation is compact: the arcs of vertex i occupy
// Edges[Offsets[i]:Offsets[i+1]]. When Counts is non-nil the
// representation is "holey" (the aggregation phase overestimates
// per-vertex degrees, leaving gaps): the arcs of vertex i occupy
// Edges[Offsets[i] : Offsets[i]+Counts[i]].
type CSR struct {
	Offsets []uint32  // len NumVertices+1
	Edges   []uint32  // arc targets (len = capacity, ≥ arc count when holey)
	Weights []float32 // arc weights, parallel to Edges
	Counts  []uint32  // per-vertex arc counts when holey; nil when compact
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumArcs returns the number of stored arcs (2|E| for a loop-free
// undirected graph).
func (g *CSR) NumArcs() int64 {
	if g.Counts == nil {
		return int64(len(g.Edges))
	}
	var n int64
	for _, c := range g.Counts {
		n += int64(c)
	}
	return n
}

// Degree returns the number of arcs out of vertex i.
func (g *CSR) Degree(i uint32) uint32 {
	if g.Counts != nil {
		return g.Counts[i]
	}
	return g.Offsets[i+1] - g.Offsets[i]
}

// Neighbors returns the arc targets and weights of vertex i. The slices
// alias the graph's storage and must not be modified.
func (g *CSR) Neighbors(i uint32) ([]uint32, []float32) {
	lo := g.Offsets[i]
	hi := lo + g.Degree(i)
	return g.Edges[lo:hi], g.Weights[lo:hi]
}

// VertexWeight returns K_i, the sum of weights of all arcs out of i
// (self-loop counted once), accumulated in float64.
func (g *CSR) VertexWeight(i uint32) float64 {
	_, ws := g.Neighbors(i)
	var k float64
	for _, w := range ws {
		k += float64(w)
	}
	return k
}

// TotalWeight returns 2m = Σ_i K_i.
func (g *CSR) TotalWeight() float64 {
	var s float64
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		s += g.VertexWeight(uint32(i))
	}
	return s
}

// HasArc reports whether an arc (i, j) exists.
func (g *CSR) HasArc(i, j uint32) bool {
	es, _ := g.Neighbors(i)
	for _, e := range es {
		if e == j {
			return true
		}
	}
	return false
}

// ArcWeight returns the total weight of arcs (i, j), 0 if none exist.
func (g *CSR) ArcWeight(i, j uint32) float64 {
	es, ws := g.Neighbors(i)
	var t float64
	for k, e := range es {
		if e == j {
			t += float64(ws[k])
		}
	}
	return t
}

// Compact returns a compact (gap-free) copy of a holey CSR. For an
// already compact graph it returns g unchanged.
func (g *CSR) Compact() *CSR {
	if g.Counts == nil {
		return g
	}
	n := g.NumVertices()
	off := make([]uint32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + g.Counts[i]
	}
	m := off[n]
	out := &CSR{
		Offsets: off,
		Edges:   make([]uint32, m),
		Weights: make([]float32, m),
	}
	for i := 0; i < n; i++ {
		lo := g.Offsets[i]
		c := g.Counts[i]
		copy(out.Edges[off[i]:off[i+1]], g.Edges[lo:lo+c])
		copy(out.Weights[off[i]:off[i+1]], g.Weights[lo:lo+c])
	}
	return out
}

// Clone returns a deep copy of g.
func (g *CSR) Clone() *CSR {
	out := &CSR{
		Offsets: append([]uint32(nil), g.Offsets...),
		Edges:   append([]uint32(nil), g.Edges...),
		Weights: append([]float32(nil), g.Weights...),
	}
	if g.Counts != nil {
		out.Counts = append([]uint32(nil), g.Counts...)
	}
	return out
}

// Validate checks structural invariants: monotone offsets, in-range
// targets, and — for compact graphs — symmetry of the arc multiset
// (every arc (i,j), i≠j, has a matching (j,i)). It returns a descriptive
// error on the first violation.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return errors.New("graph: offsets array must have length ≥ 1")
	}
	if len(g.Edges) != len(g.Weights) {
		return fmt.Errorf("graph: edges/weights length mismatch: %d vs %d", len(g.Edges), len(g.Weights))
	}
	for i := 0; i < n; i++ {
		if g.Offsets[i] > g.Offsets[i+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", i)
		}
		if g.Counts != nil && g.Offsets[i]+g.Counts[i] > g.Offsets[i+1] {
			return fmt.Errorf("graph: holey count overflows slot of vertex %d", i)
		}
	}
	if int(g.Offsets[n]) > len(g.Edges) {
		return fmt.Errorf("graph: final offset %d exceeds edge storage %d", g.Offsets[n], len(g.Edges))
	}
	for i := 0; i < n; i++ {
		es, _ := g.Neighbors(uint32(i))
		for _, e := range es {
			if int(e) >= n {
				return fmt.Errorf("graph: arc (%d,%d) target out of range (n=%d)", i, e, n)
			}
		}
	}
	if g.Counts == nil {
		if err := g.checkSymmetry(); err != nil {
			return err
		}
	}
	return nil
}

// checkSymmetry verifies that the weighted arc multiset is symmetric:
// for every pair a < b, the summed weight of the arcs (a,b) and of the
// arcs (b,a) must agree to within 1e-3. Adjacency may be unsorted and
// may repeat a target; self-loops are exempt. It runs in O(N+M): a
// counting sort gathers every backward arc (b,a), b > a, under a in
// ascending b; then, per vertex a, a dense float64 accumulator adds a's
// forward arcs and subtracts its gathered backward arcs, so each pair's
// net is summed once, in arc order. The error names the smallest
// violating pair.
func (g *CSR) checkSymmetry() error {
	n := g.NumVertices()
	start := make([]uint32, n+1) // start[a]: a's first gathered backward arc
	for i := 0; i < n; i++ {
		es, _ := g.Neighbors(uint32(i))
		for _, e := range es {
			if e < uint32(i) {
				start[e+1]++
			}
		}
	}
	for a := 0; a < n; a++ {
		start[a+1] += start[a]
	}
	from := make([]uint32, start[n])
	back := make([]float32, start[n])
	fill := append([]uint32(nil), start[:n]...)
	for i := 0; i < n; i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if e < uint32(i) {
				from[fill[e]], back[fill[e]] = uint32(i), ws[k]
				fill[e]++
			}
		}
	}
	net := make([]float64, n)
	for a := 0; a < n; a++ {
		es, ws := g.Neighbors(uint32(a))
		bs, bw := from[start[a]:start[a+1]], back[start[a]:start[a+1]]
		for k, e := range es {
			if e > uint32(a) {
				net[e] += float64(ws[k])
			}
		}
		for k, b := range bs {
			net[b] -= float64(bw[k])
		}
		// Read and clear every touched entry; a target listed twice
		// reads zero the second time.
		bad, badNet := uint32(n), 0.0
		check := func(b uint32) {
			if v := net[b]; (v > 1e-3 || v < -1e-3) && b < bad {
				bad, badNet = b, v
			}
			net[b] = 0
		}
		for _, e := range es {
			if e > uint32(a) {
				check(e)
			}
		}
		for _, b := range bs {
			check(b)
		}
		if bad < uint32(n) {
			return fmt.Errorf("graph: asymmetric arcs between %d and %d (net %g)", a, bad, badNet)
		}
	}
	return nil
}

// DegreeStats returns the minimum, maximum and average degree.
func (g *CSR) DegreeStats() (min, max uint32, avg float64) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0, 0
	}
	min = g.Degree(0)
	var total int64
	for i := 0; i < n; i++ {
		d := g.Degree(uint32(i))
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		total += int64(d)
	}
	return min, max, float64(total) / float64(n)
}

// NumUndirectedEdges returns |E| counting each undirected edge once
// (self-loops count once).
func (g *CSR) NumUndirectedEdges() int64 {
	n := g.NumVertices()
	var loops, arcs int64
	for i := 0; i < n; i++ {
		es, _ := g.Neighbors(uint32(i))
		arcs += int64(len(es))
		for _, e := range es {
			if e == uint32(i) {
				loops++
			}
		}
	}
	return (arcs-loops)/2 + loops
}
