package oracle

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// inductiveGrain is the vertex chunk of CheckCSRFrom's row pass.
const inductiveGrain = 1 << 12

// CheckCSRFrom verifies g, the merge of base with the pair states
// (graph.MergeDeltaOn), by induction from base. base must be a compact
// CSR that passed CheckCSR and that nothing has written since; a holey
// base fails, since the check compares its storage directly. g must be
// compact, start at offset 0, end at its arc count and keep at least
// base's vertices. Then, row by row:
//
//   - a run of rows that no state touches must hold base's rows byte for
//     byte, at offsets that are base's plus one constant: a streaming
//     compare of the two graphs' storage;
//   - a touched row must be strictly ascending, with targets below the
//     vertex count and positive finite weights, and must equal its base
//     row merged with its state arcs by an independent serial merge.
//
// A g that passes also passes CheckCSR: a pair that no state touches
// keeps base's arcs in both rows, and base passed; a touched pair holds
// its one state in both endpoint rows, or in neither. Copied targets
// are below base's vertex count, and copied weights are base's finite
// ones.
//
// It reports a failure as csr-wellformed, naming the smallest failing
// row at every thread count, and runs on pool p (nil = the default
// pool) with up to threads participants (≤ 0: the default count). Its
// cost is one bandwidth-bound pass over the two graphs plus O(P log P)
// for P states, against CheckCSR's transpose of every arc.
func CheckCSRFrom(r *Report, p *parallel.Pool, g, base *graph.CSR, states map[uint64]graph.DeltaState, threads int) {
	r.Checks++
	if p == nil {
		p = parallel.Default()
	}
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	if err := checkFrom(p, g, base, states, threads); err != nil {
		r.addf("csr-wellformed", "%v", err)
	}
}

// stateArc is one direction of a pair state: the arc (src, dst) set to
// st.
type stateArc struct {
	src, dst uint32
	st       graph.DeltaState
}

func checkFrom(p *parallel.Pool, g, base *graph.CSR, states map[uint64]graph.DeltaState, threads int) error {
	if err := g.ValidateShapeOn(p, threads); err != nil {
		return err
	}
	n, bn := g.NumVertices(), base.NumVertices()
	switch {
	case g.Counts != nil:
		return errors.New("graph: holey, but a merge is compact")
	case base.Counts != nil:
		return errors.New("graph: the base is holey, so no row can be compared with it")
	case n < bn:
		return fmt.Errorf("graph: %d vertices, fewer than the base's %d", n, bn)
	case g.Offsets[0] != 0:
		return fmt.Errorf("graph: first offset %d, not 0", g.Offsets[0])
	case int(g.Offsets[n]) != len(g.Edges):
		return fmt.Errorf("graph: final offset %d, but %d arcs", g.Offsets[n], len(g.Edges))
	}
	arcs := make([]stateArc, 0, 2*len(states))
	for k, st := range states {
		u, v := graph.SplitPairKey(k)
		arcs = append(arcs, stateArc{u, v, st})
		if u != v {
			arcs = append(arcs, stateArc{v, u, st})
		}
	}
	slices.SortFunc(arcs, func(a, b stateArc) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
	})
	// A pair has an arc out of each endpoint, so a pair with an endpoint
	// past the vertex count has an arc out of it.
	if i := slices.IndexFunc(arcs, func(a stateArc) bool { return int(a.src) >= n }); i >= 0 {
		return fmt.Errorf("graph: pair state {%d,%d} outside the %d vertices", arcs[i].dst, arcs[i].src, n)
	}
	// rowArcs returns the index of v's first state arc and of the first
	// arc past v's.
	rowArcs := func(v int) (int, int) {
		lo, _ := slices.BinarySearchFunc(arcs, uint32(v), func(a stateArc, v uint32) int { return cmp.Compare(a.src, v) })
		hi := lo
		for hi < len(arcs) && int(arcs[hi].src) == v {
			hi++
		}
		return lo, hi
	}
	bufs := make([]rowBuf, max(threads, 1))
	bad := parallel.FirstOn(p, n, threads, inductiveGrain, func(lo, hi, tid int) int {
		a, _ := rowArcs(lo)
		for i := lo; i < hi; {
			next := hi
			if a < len(arcs) {
				next = min(next, int(arcs[a].src))
			}
			if i < next {
				// The run fails exactly when one of its rows does.
				if !copiedRun(g, base, i, next) {
					for v := i; v < next; v++ {
						if copiedRow(g, base, v) != nil {
							return v
						}
					}
				}
				i = next
				continue
			}
			_, end := rowArcs(i)
			if mergedRow(g, base, i, arcs[a:end], &bufs[tid]) != nil {
				return i
			}
			a, i = end, i+1
		}
		return hi
	})
	if bad == n {
		return nil
	}
	if a, end := rowArcs(bad); a < end {
		return mergedRow(g, base, bad, arcs[a:end], &rowBuf{})
	}
	return copiedRow(g, base, bad)
}

// baseRow returns base's row v, empty past base's vertices.
func baseRow(base *graph.CSR, v int) ([]uint32, []float32) {
	if v >= base.NumVertices() {
		return nil, nil
	}
	return base.Neighbors(uint32(v))
}

// copiedRun reports whether rows lo..hi-1 of g hold base's rows byte
// for byte, at offsets that are base's plus one constant. It fails
// exactly when copiedRow fails on one of the rows.
func copiedRun(g, base *graph.CSR, lo, hi int) bool {
	bn := base.NumVertices()
	bo := func(v int) uint32 { return base.Offsets[min(v, bn)] }
	shift := g.Offsets[lo] - bo(lo)
	for v := lo + 1; v <= hi; v++ {
		if g.Offsets[v] != bo(v)+shift {
			return false
		}
	}
	from, to := g.Offsets[lo], g.Offsets[hi]
	return sameBytes(g.Edges[from:to], base.Edges[bo(lo):bo(hi)]) &&
		sameBytes(g.Weights[from:to], base.Weights[bo(lo):bo(hi)])
}

// copiedRow returns why row v of g, which no state touches, is not
// base's row v.
func copiedRow(g, base *graph.CSR, v int) error {
	es, ws := g.Neighbors(uint32(v))
	bes, bws := baseRow(base, v)
	if len(es) != len(bes) {
		return fmt.Errorf("graph: row %d, which no pair state touches, has %d arcs, the base's %d", v, len(es), len(bes))
	}
	for k := range es {
		if es[k] != bes[k] || math.Float32bits(ws[k]) != math.Float32bits(bws[k]) {
			return fmt.Errorf("graph: row %d, which no pair state touches, holds arc (%d,%d) of weight %g where the base holds (%d,%d) of weight %g",
				v, v, es[k], ws[k], v, bes[k], bws[k])
		}
	}
	return nil
}

// mergedRow returns why row v of g is not strictly ascending with
// targets below the vertex count and positive finite weights, or is
// not base's row v merged with v's state arcs sa (ascending by
// target). buf is scratch for the merged row.
func mergedRow(g, base *graph.CSR, v int, sa []stateArc, buf *rowBuf) error {
	n := g.NumVertices()
	es, ws := g.Neighbors(uint32(v))
	for k, e := range es {
		switch w := ws[k]; {
		case int(e) >= n:
			return fmt.Errorf("graph: arc (%d,%d) target out of range (n=%d)", v, e, n)
		case k > 0 && es[k-1] >= e:
			return fmt.Errorf("graph: row %d not strictly ascending at arc (%d,%d)", v, v, e)
		case !(w > 0 && w <= math.MaxFloat32):
			return fmt.Errorf("graph: arc (%d,%d) weight %g not positive and finite", v, e, w)
		}
	}
	buf.merge(base, v, sa)
	if !slices.Equal(es, buf.es) || !sameBytes(ws, buf.ws) {
		k := 0
		for k < min(len(es), len(buf.es)) && es[k] == buf.es[k] && math.Float32bits(ws[k]) == math.Float32bits(buf.ws[k]) {
			k++
		}
		return fmt.Errorf("graph: row %d differs at arc %d from its base row merged with its %d pair states (%d arcs, merged %d)",
			v, k, len(sa), len(es), len(buf.es))
	}
	return nil
}

// rowBuf holds one merged row.
type rowBuf struct {
	es []uint32
	ws []float32
}

// merge sets b to base's row v merged with v's state arcs sa
// (ascending by target) in one serial pass: each state arc replaces
// the base arc with its target, or adds one, and an absent state drops
// it.
func (b *rowBuf) merge(base *graph.CSR, v int, sa []stateArc) {
	bes, bws := baseRow(base, v)
	b.es, b.ws = b.es[:0], b.ws[:0]
	k := 0
	for _, s := range sa {
		for ; k < len(bes) && bes[k] < s.dst; k++ {
			b.es, b.ws = append(b.es, bes[k]), append(b.ws, bws[k])
		}
		if k < len(bes) && bes[k] == s.dst {
			k++
		}
		if s.st.Present {
			b.es, b.ws = append(b.es, s.dst), append(b.ws, s.st.W)
		}
	}
	b.es, b.ws = append(b.es, bes[k:]...), append(b.ws, bws[k:]...)
}

// sameBytes reports whether a and b hold the same bytes, comparing
// their storage directly: float32 == would call NaN unequal to itself
// and -0 equal to +0.
func sameBytes[T uint32 | float32](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	size := int(unsafe.Sizeof(a[0])) * len(a)
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), size), unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), size))
}
