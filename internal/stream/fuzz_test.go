package stream

import (
	"errors"
	"math"
	"slices"
	"testing"

	"gveleiden/internal/graph"
)

// fuzzWeights are the arc and insertion weights the fuzz decoder draws
// from: ordinary, fractional, cancelling, non-finite and overflowing.
var fuzzWeights = [...]float32{
	1, 2, 0.5, 3, 1e-30, -1, 0, -0.5,
	float32(math.NaN()), float32(math.Inf(1)), math.MaxFloat32, -math.MaxFloat32,
}

// decodeCase builds a CSR of at most 6 vertices and a batch from fuzz
// bytes. The CSR may be holey, have a leading gap, unsorted or
// repeated targets, targets past its vertex count, unmirrored arcs and
// any weight; or, on one mode bit, it is the Builder's graph over the
// same arcs, which is canonical when their weights are positive.
// Deletions name an arc of the CSR or a random pair; insertions carry
// any weight and may name vertices past the end.
func decodeCase(data []byte) (in *graph.CSR, ins, del []graph.Edge) {
	next := func() uint32 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return uint32(b)
	}
	weight := func() float32 { return fuzzWeights[next()%uint32(len(fuzzWeights))] }
	n := next() % 7
	mode := next()
	in = &graph.CSR{Offsets: make([]uint32, n+1)}
	if mode&1 != 0 {
		in.Counts = make([]uint32, n)
	}
	if mode&2 != 0 {
		in.Edges, in.Weights = append(in.Edges, 0), append(in.Weights, 1)
		in.Offsets[0] = 1
	}
	var arcs []graph.Edge
	for i := uint32(0); i < n; i++ {
		d := next() % 5
		for k := uint32(0); k < d; k++ {
			e := graph.Edge{U: i, V: next() % (n + 2), W: weight()}
			arcs = append(arcs, e)
			in.Edges, in.Weights = append(in.Edges, e.V), append(in.Weights, e.W)
		}
		if in.Counts != nil {
			in.Counts[i] = d
			for gap := next() % 3; gap > 0; gap-- {
				in.Edges, in.Weights = append(in.Edges, 0), append(in.Weights, 0)
			}
		}
		in.Offsets[i+1] = uint32(len(in.Edges))
	}
	if mode&4 != 0 {
		in = graph.FromEdges(int(n), arcs)
	}
	for k := next() % 4; k > 0; k-- {
		if b := next(); b < 192 && len(arcs) > 0 {
			a := arcs[b%uint32(len(arcs))]
			del = append(del, graph.Edge{U: a.V, V: a.U})
		} else {
			del = append(del, graph.Edge{U: next() % (n + 3), V: next() % (n + 3)})
		}
	}
	for k := next() % 6; k > 0; k-- {
		ins = append(ins, graph.Edge{U: next() % (n + 3), V: next() % (n + 3), W: weight()})
	}
	return in, ins, del
}

// sameBits reports whether a and b hold identical arrays, comparing
// weights bit for bit.
func sameBits(a, b *graph.CSR) bool {
	return slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Edges, b.Edges) &&
		slices.Equal(a.Counts, b.Counts) &&
		slices.EqualFunc(a.Weights, b.Weights, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// FuzzApplyDeltaMatchesStream: for a small CSR of any shape and any
// batch, graph.ApplyDelta and the stream's FromCSR, Apply and Snapshot
// give the same canonical CSR or the same error, and neither writes
// the input.
func FuzzApplyDeltaMatchesStream(f *testing.F) {
	f.Add([]byte{})
	// A canonical triangle with a batch; a holey graph with zero,
	// negative and infinite weights, plus two insertions; a leading gap
	// and a NaN weight, plus a batch with a missing deletion; and
	// overflowing sums.
	f.Add([]byte{3, 4, 2, 1, 3, 2, 0, 1, 1, 0, 1, 1, 0, 5, 1, 2, 3})
	f.Add([]byte{4, 1, 3, 2, 6, 2, 5, 1, 9, 1, 2, 3, 1, 1, 7, 2, 0, 3, 4, 1, 2, 5, 250, 1, 2, 3, 0, 1, 0, 2, 3, 5, 4, 4, 2})
	f.Add([]byte{5, 2, 4, 4, 1, 4, 6, 4, 2, 3, 0, 1, 1, 200, 1, 2, 2, 5, 6, 2, 1, 3, 2, 6, 0, 1, 1, 5, 5, 0})
	f.Add([]byte{2, 0, 2, 1, 10, 1, 10, 0, 0, 2, 0, 1, 10, 1, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ins, del := decodeCase(data)
		before := in.Clone()
		want, errWant := graph.ApplyDelta(in, ins, del)
		s := FromCSR(in)
		errGot := s.Apply(ins, del)
		if !sameBits(in, before) {
			t.Fatal("the input CSR was written")
		}
		if errWant != nil || errGot != nil {
			if errWant == nil || errGot == nil || errors.Unwrap(errGot).Error() != errWant.Error() {
				t.Fatalf("errors differ: ApplyDelta %v, stream %v", errWant, errGot)
			}
			return
		}
		got := s.Snapshot()
		if !sameBits(got, want) {
			t.Fatalf("CSRs differ:\nApplyDelta %+v\nstream     %+v", want, got)
		}
		if c, edges := graph.Canonical(want); c != want || edges != s.NumEdges() {
			t.Fatalf("result is not canonical, or NumEdges %d is off", s.NumEdges())
		}
		if !sameBits(in, before) {
			t.Fatal("the input CSR was written")
		}
	})
}
