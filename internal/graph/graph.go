// Package graph provides the compressed sparse row (CSR) graph
// infrastructure GVE-Leiden operates on: weighted CSR graphs, the
// "holey" CSR variant produced by the aggregation phase, builders,
// generators' target representation, text I/O, and connectivity
// utilities.
//
// The text readers and writers here (Matrix Market, edge list) are the
// conversion import path: they validate as they parse and exist so
// cmd/gveconvert can ingest external data. The storage format proper —
// the versioned, checksummed, mmap-ready .gvecsr container every CLI
// and the server load through — lives in the gvecsr subpackage; see
// FORMAT.md for the byte-level spec.
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
	"sync/atomic"

	"gveleiden/internal/parallel"
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
// error on the first violation. It runs on the calling goroutine;
// ValidateOn runs the same checks on a pool.
func (g *CSR) Validate() error { return g.ValidateOn(nil, 1) }

// checkGrain is the vertex chunk of the validation passes.
const checkGrain = 512

// ValidateOn is Validate running its passes on pool p (nil = the
// default pool) with up to threads participants. Each pass reports the
// smallest vertex that fails it, so the verdict and the error text are
// Validate's at every thread count.
func (g *CSR) ValidateOn(p *parallel.Pool, threads int) error {
	if err := g.ValidateShapeOn(p, threads); err != nil {
		return err
	}
	if p == nil {
		p = parallel.Default()
	}
	n := g.NumVertices()
	outside := func(i int) int {
		es, _ := g.Neighbors(uint32(i))
		for k, e := range es {
			if int(e) >= n {
				return k
			}
		}
		return -1
	}
	if i := parallel.FirstOn(p, n, threads, checkGrain, func(lo, hi, _ int) int {
		for i := lo; i < hi; i++ {
			if outside(i) >= 0 {
				return i
			}
		}
		return hi
	}); i < n {
		es, _ := g.Neighbors(uint32(i))
		return fmt.Errorf("graph: arc (%d,%d) target out of range (n=%d)", i, es[outside(i)], n)
	}
	if g.Counts == nil {
		return g.SymmetryOn(p, threads)
	}
	return nil
}

// ValidateShapeOn checks the layout that reading any row of g relies
// on, without reading an arc: an offsets array of length ≥ 1, as many
// weights as edges, one holey count per vertex, monotone offsets,
// holey counts within their slots, and a final offset within the edge
// storage. Neighbors cannot go out of bounds on a g that passes. It
// runs on pool p (nil = the default pool) with up to threads
// participants, names the smallest failing vertex, and gives the text
// Validate gives for the same fault.
func (g *CSR) ValidateShapeOn(p *parallel.Pool, threads int) error {
	n := g.NumVertices()
	if n < 0 {
		return errors.New("graph: offsets array must have length ≥ 1")
	}
	if len(g.Edges) != len(g.Weights) {
		return fmt.Errorf("graph: edges/weights length mismatch: %d vs %d", len(g.Edges), len(g.Weights))
	}
	off, counts := g.Offsets, g.Counts
	if counts != nil && len(counts) != n {
		return fmt.Errorf("graph: %d holey counts for %d vertices", len(counts), n)
	}
	if p == nil {
		p = parallel.Default()
	}
	if i := parallel.FirstOn(p, n, threads, checkGrain, func(lo, hi, _ int) int {
		for i := lo; i < hi; i++ {
			if off[i] > off[i+1] || (counts != nil && uint64(off[i])+uint64(counts[i]) > uint64(off[i+1])) {
				return i
			}
		}
		return hi
	}); i < n {
		if off[i] > off[i+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", i)
		}
		return fmt.Errorf("graph: holey count overflows slot of vertex %d", i)
	}
	if int(off[n]) > len(g.Edges) {
		return fmt.Errorf("graph: final offset %d exceeds edge storage %d", off[n], len(g.Edges))
	}
	return nil
}

// SymmetryOn checks that the weighted arc multiset is symmetric: for
// every pair a < b, the summed weight of the arcs (a,b) and of the arcs
// (b,a) must agree to within 1e-3. Adjacency may be unsorted and may
// repeat a target; self-loops are exempt. Arcs are read through
// Neighbors, so a holey g is checked as its compacted copy would be;
// offsets and targets must already be valid (Validate's other checks).
//
// It runs in O(N+M). A counting sort gathers every backward arc (b,a),
// b > a, under a, on pool p (nil = the default pool) with up to threads
// participants; one participant gathers all of a source's arcs in
// order through an atomic cursor, so a's arcs from one b keep their
// order. Then, per vertex a, one dense float64 accumulator adds a's
// forward arcs and subtracts its gathered backward arcs, so each pair's
// net is summed once, in arc order, whatever the thread count. The
// error names the smallest violating pair.
func (g *CSR) SymmetryOn(p *parallel.Pool, threads int) error {
	if p == nil {
		p = parallel.Default()
	}
	n := g.NumVertices()
	backwardArcs := func(body func(i uint32, e uint32, w float32)) {
		p.For(n, threads, checkGrain, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				es, ws := g.Neighbors(uint32(i))
				for k, e := range es {
					if e < uint32(i) {
						body(uint32(i), e, ws[k])
					}
				}
			}
		})
	}
	// cursor[a] counts a's backward arcs, then holds where the next one
	// goes; once all are placed, a's run ends at cursor[a] and starts
	// where a-1's ends.
	cursor := make([]uint32, n)
	backwardArcs(func(_, e uint32, _ float32) { atomic.AddUint32(&cursor[e], 1) })
	total := parallel.ExclusiveScanOn(p, cursor, threads)
	from := make([]uint32, total)
	back := make([]float32, total)
	backwardArcs(func(i, e uint32, w float32) {
		slot := atomic.AddUint32(&cursor[e], 1) - 1
		from[slot], back[slot] = i, w
	})
	net := make([]float64, n)
	start := uint32(0)
	for a := 0; a < n; a++ {
		end := cursor[a] //gvevet:exclusive the gather's atomic adds finished behind its region barrier
		es, ws := g.Neighbors(uint32(a))
		bs, bw := from[start:end], back[start:end]
		start = end
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
