package graph

import (
	"strings"
	"testing"
)

// Fuzz targets for the parsers: arbitrary input must never panic, and
// anything accepted must be a structurally valid graph.

// hugeIDs reports whether the input mentions a decimal token of 8+
// digits. Such inputs are legal (ids up to MaxVertices−1) but make the
// builder allocate gigabytes of offsets for a single edge — fine for a
// real loader call, an OOM hazard for a fuzzing loop. The cap lives in
// the harness, not the parser, so real callers keep the full id range.
func hugeIDs(input string) bool {
	run := 0
	for _, r := range input {
		if r >= '0' && r <= '9' {
			run++
			if run >= 8 {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 2.5\n# comment\n")
	f.Add("")
	f.Add("0 0 1\n")
	f.Add("9999999 1\n")
	f.Add("a b c\n0 1\n")
	f.Add("0 1 -3\n")
	f.Add("4294967295 1\n") // uint32 wraparound regression
	f.Add("0 1 NaN\n")
	f.Add("0 1 +Inf\n")
	f.Add("0 1 1e60\n")
	f.Fuzz(func(t *testing.T, input string) {
		if hugeIDs(input) {
			t.Skip("id magnitude capped in the fuzz harness")
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v\ninput: %q", err, input)
		}
	})
}

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9\n1 2 1\n")
	f.Add("garbage")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n") // 0-coordinate underflow regression
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n")       // negative size line regression
	f.Add("%%MatrixMarket matrix coordinate real general\n")                 // missing size line regression
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n\n1 2 1\n") // blank line between entries
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1\n")   // out-of-range coordinate regression
	f.Fuzz(func(t *testing.T, input string) {
		if hugeIDs(input) {
			t.Skip("id magnitude capped in the fuzz harness")
		}
		g, err := ReadMatrixMarket(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v\ninput: %q", err, input)
		}
	})
}

// FuzzBuilder drives Builder with arbitrary small edge batches and
// checks the output against the structural validator plus the builder's
// contracts: symmetry, duplicate merging, weight conservation.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0})
	f.Add([]byte{0, 0})       // self-loop
	f.Add([]byte{5, 5, 5, 5}) // duplicate self-loops
	f.Add([]byte{1, 2, 2, 1}) // duplicate edge in both directions
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBuilder(0)
		var want float64
		for i := 0; i+1 < len(data); i += 2 {
			u, v := uint32(data[i]), uint32(data[i+1])
			w := float32(1 + (i/2)%3)
			b.AddEdge(u, v, w)
			if u == v {
				want += float64(w)
			} else {
				want += 2 * float64(w)
			}
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails validation: %v\nedges: %v", err, data)
		}
		got := g.TotalWeight()
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("total weight %g, want %g (edges %v)", got, want, data)
		}
		// Adjacency lists must come out sorted and duplicate-free.
		n := g.NumVertices()
		for i := 0; i < n; i++ {
			es, _ := g.Neighbors(uint32(i))
			for k := 1; k < len(es); k++ {
				if es[k-1] >= es[k] {
					t.Fatalf("vertex %d adjacency not sorted/merged: %v", i, es)
				}
			}
		}
	})
}
