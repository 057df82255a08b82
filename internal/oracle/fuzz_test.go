package oracle

import (
	"math"
	"testing"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
)

// FuzzLeidenInvariants drives the full Leiden pipeline on arbitrary
// byte-derived graphs with every level and run invariant attached: any
// input whose run violates partition validity, refinement containment,
// connectivity, CSR well-formedness or weight conservation crashes the
// fuzzer. Vertex ids are folded into [0, 64) so the graphs stay tiny
// and the fuzzer explores structure, not allocation size.
func FuzzLeidenInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, false)
	f.Add([]byte{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3}, true)
	f.Add([]byte{7, 7, 1, 2}, false) // self-loop plus an edge
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, det bool) {
		b := graph.NewBuilder(0)
		for i := 0; i+1 < len(data); i += 2 {
			u := uint32(data[i]) % 64
			v := uint32(data[i+1]) % 64
			b.AddEdge(u, v, float32(1+i%3))
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("builder produced invalid CSR: %v", err)
		}

		lc := &LevelChecks{R: &Report{}, Threads: 2}
		opt := core.DefaultOptions()
		opt.Threads = 2
		opt.Deterministic = det
		opt = lc.Attach(opt)
		res := core.Leiden(g, opt)
		CheckRun(lc.R, g, res, true, 2)
		if err := lc.R.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzArcWeights are the weights FuzzCheckCSRFromMatchesFull writes
// over an arc: ordinary, tiny, huge, non-positive and non-finite.
var fuzzArcWeights = [...]float32{
	1, 0.5, 1e-30, math.MaxFloat32, 0, -1,
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
}

// FuzzCheckCSRFromMatchesFull decodes a canonical base of at most 23
// vertices, pair states over it (growing it by up to 3 vertices) and an
// optional fault in one row of their merge: a fault class of
// TestCheckCSRFromRejectsFaults, an arc given another weight or
// target, or two arcs swapped. The unfaulted merge must pass both the
// inductive and the full check. Whenever the full check rejects the
// faulted graph, the inductive check must reject it too, as
// csr-wellformed.
func FuzzCheckCSRFromMatchesFull(f *testing.F) {
	f.Add([]byte{6, 8, 0, 1, 4, 1, 2, 4, 2, 3, 4, 3, 4, 4, 4, 5, 6, 0, 0, 8, 1, 2, 3, 0, 5, 0, 1, 2, 5, 2})
	f.Add([]byte{3, 3, 0, 1, 2, 1, 2, 2, 0, 0, 1, 1, 2, 0, 1, 0, 2, 12, 1, 2})
	f.Add([]byte{10, 12, 0, 9, 1, 1, 8, 2, 2, 7, 3, 3, 6, 4, 4, 5, 5, 5, 5, 6, 0, 0, 1, 2, 3, 4, 0, 9, 0, 9, 4, 11, 3, 0})
	f.Add([]byte{})
	faults := []string{"offsets", "target", "nan", "+inf", "-inf", "asymmetry", "missing-mirror", "bit-flip", "drop", "final-offset", "weight", "any-target", "swap"}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		pairs := func(n, m int) map[uint64]graph.DeltaState {
			states := map[uint64]graph.DeltaState{}
			for k := 0; k < m && n > 0; k++ {
				u, v := uint32(next()%n), uint32(next()%n)
				st := graph.DeltaState{}
				if w := next() % 9; w > 0 {
					st = graph.DeltaState{Present: true, W: float32(w) / 2}
				}
				states[graph.PairKey(u, v)] = st
			}
			return states
		}
		bn := next() % 24
		base := graph.MergeDelta(&graph.CSR{Offsets: make([]uint32, 1)}, bn, pairs(bn, next()%48))
		n := bn + next()%4
		states := pairs(n, next()%12)
		g := graph.MergeDelta(base, n, states)
		threads := 1 + next()%3
		var full, ind Report
		CheckCSR(&full, g)
		CheckCSRFrom(&ind, nil, g, base, states, threads)
		if !full.Ok() || !ind.Ok() {
			t.Fatalf("an unfaulted merge failed: full %v, inductive %v", full.Violations, ind.Violations)
		}

		fault := next() % (len(faults) + 1)
		if fault == len(faults) || n == 0 {
			return
		}
		v := next() % n
		var fg *graph.CSR
		switch name := faults[fault]; name {
		case "weight", "any-target", "swap":
			fg = g.Clone()
			lo, hi := int(fg.Offsets[v]), int(fg.Offsets[v+1])
			if lo == hi {
				return
			}
			k := lo + next()%(hi-lo)
			switch name {
			case "weight":
				fg.Weights[k] = fuzzArcWeights[next()%len(fuzzArcWeights)]
			case "any-target":
				fg.Edges[k] = uint32(next() % (n + 2))
			case "swap":
				j := lo + next()%(hi-lo)
				fg.Edges[k], fg.Edges[j] = fg.Edges[j], fg.Edges[k]
				fg.Weights[k], fg.Weights[j] = fg.Weights[j], fg.Weights[k]
			}
		default:
			var ok bool
			if fg, ok = injectFault(g, v, name); !ok {
				return
			}
		}
		full, ind = Report{}, Report{}
		CheckCSR(&full, fg)
		CheckCSRFrom(&ind, nil, fg, base, states, threads)
		if !full.Ok() && ind.Ok() {
			t.Fatalf("%s in row %d: the full check rejected it (%v), the inductive check passed it", faults[fault], v, full.Violations)
		}
		for _, x := range ind.Violations {
			if x.Invariant != "csr-wellformed" {
				t.Fatalf("%s in row %d: inductive violation %v", faults[fault], v, x)
			}
		}
	})
}
