package graph_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
)

// applyDeltaBuilder is ApplyDelta as it was before the linear merge,
// kept as the differential reference. It is unchanged apart from the
// package qualifiers and the nodeterm directive, which this test
// package does not need. It looks every pair up with a linear scan and
// rebuilds the whole graph through a Builder.
func applyDeltaBuilder(g *graph.CSR, insertions, deletions []graph.Edge) (*graph.CSR, error) {
	gn := g.NumVertices()
	lookup := func(u, v uint32) (float32, bool) {
		if int(u) >= gn {
			return 0, false
		}
		es, ws := g.Neighbors(u)
		var t float32
		found := false
		for k, e := range es {
			if e == v {
				t += ws[k]
				found = true
			}
		}
		return t, found
	}
	touched, err := graph.EvaluateDelta(lookup, insertions, deletions)
	if err != nil {
		return nil, err
	}
	n := gn
	for _, e := range insertions {
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	b := graph.NewBuilder(n)
	for i := 0; i < gn; i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if uint32(i) > e {
				continue // emit each undirected edge once
			}
			if _, hit := touched[graph.PairKey(uint32(i), e)]; hit {
				continue // deleted, or re-emitted below with its final weight
			}
			b.AddEdge(uint32(i), e, ws[k])
		}
	}
	keys := make([]uint64, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if st := touched[k]; st.Present {
			u, v := graph.SplitPairKey(k)
			b.AddEdge(u, v, st.W)
		}
	}
	return b.Build(), nil
}

// requireSameBits fails unless a and b are compact CSRs with identical
// offsets, targets and weight bits.
func requireSameBits(t *testing.T, a, b *graph.CSR, label string) {
	t.Helper()
	if a.Counts != nil || b.Counts != nil {
		t.Fatalf("%s: holey output", label)
	}
	if !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Edges, b.Edges) {
		t.Fatalf("%s: adjacency differs (%d vs %d vertices, %d vs %d arcs)",
			label, a.NumVertices(), b.NumVertices(), len(a.Edges), len(b.Edges))
	}
	for k := range a.Weights {
		if math.Float32bits(a.Weights[k]) != math.Float32bits(b.Weights[k]) {
			t.Fatalf("%s: arc %d weight %g vs %g", label, k, a.Weights[k], b.Weights[k])
		}
	}
}

// randomBatch draws one batch against cur: existing-edge deletions,
// re-inserts of deleted edges, cancelling and dipping negative weights,
// repeated pairs, self-loops, endpoints past the vertex count, and —
// now and then — a poison that must reject the whole batch: a
// duplicate or missing deletion, a NaN weight, or an overflowing sum.
func randomBatch(rng *rand.Rand, cur *graph.CSR, loops []uint32) (ins, del []graph.Edge) {
	n := uint32(cur.NumVertices())
	_, del = graph.RandomDelta(cur, 0, 8, rng.Uint64())
	for _, v := range loops {
		if rng.IntN(3) == 0 && cur.HasArc(v, v) && !slices.Contains(del, graph.Edge{U: v, V: v}) {
			del = append(del, graph.Edge{U: v, V: v})
		}
	}
	pair := func() (uint32, uint32) { return rng.Uint32N(n), rng.Uint32N(n) }
	for i := 0; i < 24; i++ {
		var e graph.Edge
		switch rng.IntN(7) {
		case 0: // random pair, possibly existing
			e.U, e.V = pair()
			e.W = float32(rng.IntN(4) + 1)
		case 1: // re-insert a deleted edge
			if len(del) == 0 {
				continue
			}
			d := del[rng.IntN(len(del))]
			e = graph.Edge{U: d.V, V: d.U, W: 0.5}
		case 2: // negative: cancels, dips, or never creates its pair
			e.U, e.V = pair()
			if es, ws := cur.Neighbors(e.U); len(es) > 0 && rng.IntN(2) == 0 {
				k := rng.IntN(len(es))
				e.V, e.W = es[k], -ws[k]*float32(rng.IntN(3))/2
				break
			}
			e.W = -float32(rng.IntN(3) + 1)
		case 3: // repeat an earlier insertion
			if len(ins) == 0 {
				continue
			}
			e = ins[rng.IntN(len(ins))]
		case 4: // self-loop
			v := rng.Uint32N(n)
			e = graph.Edge{U: v, V: v, W: float32(rng.IntN(3) + 1)}
		case 5: // vertex growth, sometimes cancelled at once
			e.U, e.V = n+rng.Uint32N(3), rng.Uint32N(n)
			e.W = float32(rng.IntN(3)) - 0.5
		case 6: // fractional reinforcement
			e.U, e.V = pair()
			e.W = 0.1 * float32(rng.IntN(5)+1)
		}
		ins = append(ins, e)
	}
	switch rng.IntN(10) {
	case 0:
		if len(del) > 0 {
			d := del[rng.IntN(len(del))]
			del = append(del, graph.Edge{U: d.V, V: d.U})
		}
	case 1:
		for {
			u, v := pair()
			if !cur.HasArc(u, v) {
				del = append(del, graph.Edge{U: u, V: v})
				break
			}
		}
	case 2:
		ins = append(ins, graph.Edge{U: 1, V: 2, W: float32(math.NaN())})
	case 3:
		ins = append(ins, graph.Edge{U: 3, V: 4, W: math.MaxFloat32}, graph.Edge{U: 4, V: 3, W: math.MaxFloat32})
	}
	return ins, del
}

// TestApplyDeltaMatchesBuilderReference: on generator graphs, batch
// after batch, the linear merge and the Builder rebuild give
// bit-identical CSRs, or the same error for a rejected batch, and the
// merge's output is canonical again.
func TestApplyDeltaMatchesBuilderReference(t *testing.T) {
	graphs := map[string]func(seed uint64) *graph.CSR{
		"social": func(seed uint64) *graph.CSR { g, _ := gen.SocialNetwork(400, 8, 5, 0.3, seed); return g },
		"web":    func(seed uint64) *graph.CSR { g, _ := gen.WebGraph(400, 8, seed); return g },
		"road":   func(seed uint64) *graph.CSR { g, _ := gen.RoadNetwork(400, seed); return g },
		"rmat":   func(seed uint64) *graph.CSR { return gen.RMAT(9, 3000, 0, 0, 0, seed) },
	}
	for name, build := range graphs {
		for seed := uint64(1); seed <= 6; seed++ {
			cur := build(seed)
			if c, _ := graph.Canonical(cur); c != cur {
				t.Fatalf("%s/%d: generator graph is not canonical", name, seed)
			}
			rng := rand.New(rand.NewPCG(seed, 99))
			var loops []uint32
			rejected := 0
			for batch := 0; batch < 8; batch++ {
				ins, del := randomBatch(rng, cur, loops)
				want, errWant := applyDeltaBuilder(cur, ins, del)
				got, errGot := graph.ApplyDelta(cur, ins, del)
				if errWant != nil || errGot != nil {
					if errWant == nil || errGot == nil || errWant.Error() != errGot.Error() {
						t.Fatalf("%s/%d batch %d: errors differ: reference %v, merge %v", name, seed, batch, errWant, errGot)
					}
					rejected++
					continue
				}
				requireSameBits(t, got, want, fmt.Sprintf("%s/%d batch %d", name, seed, batch))
				if c, edges := graph.Canonical(got); c != got || edges != got.NumUndirectedEdges() {
					t.Fatalf("%s/%d batch %d: merge output is not canonical", name, seed, batch)
				}
				for _, e := range ins {
					if e.U == e.V {
						loops = append(loops, e.U)
					}
				}
				cur = got
			}
			if rejected == 8 {
				t.Fatalf("%s/%d: every batch was rejected", name, seed)
			}
		}
	}
}

// TestApplyDeltaDropsNonPositiveEdges: a loader keeps an edge of weight
// ≤ 0, but ApplyDelta normalizes it away like the stream does, so
// deleting it is an error and re-inserting it starts from zero.
func TestApplyDeltaDropsNonPositiveEdges(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 0}, {U: 2, V: 3, W: -2}})
	if _, err := graph.ApplyDelta(g, nil, []graph.Edge{{U: 1, V: 2}}); err == nil {
		t.Fatal("deleting a zero-weight edge succeeded")
	}
	next, err := graph.ApplyDelta(g, []graph.Edge{{U: 2, V: 3, W: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	requireSameBits(t, next, want, "after re-insert")
}

// TestCanonical: a canonical graph is returned as itself with its edge
// count, and the canonical form of anything else is built anew.
func TestCanonical(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	if c, edges := graph.Canonical(g); c != g || edges != 3 {
		t.Fatalf("canonical input: got %p with %d edges, want %p with 3", c, edges, g)
	}
	empty := &graph.CSR{Offsets: make([]uint32, 5)}
	if c, edges := graph.Canonical(empty); c != empty || edges != 0 {
		t.Fatal("an empty graph is canonical")
	}
	// Parallel arcs summed in float32, a cancelled loop dropped, a NaN
	// arc skipped, a mirror arc never read, and an arc past the vertex
	// count growing it even though its pair cancels.
	in := &graph.CSR{
		Offsets: []uint32{0, 6, 7},
		Edges:   []uint32{1, 1, 0, 0, 3, 1, 0},
		Weights: []float32{2, 0.5, 1, -1, -1, float32(math.NaN()), 9},
	}
	c, edges := graph.Canonical(in)
	want := &graph.CSR{Offsets: []uint32{0, 1, 2, 2, 2}, Edges: []uint32{1, 0}, Weights: []float32{2.5, 2.5}}
	requireSameBits(t, c, want, "normalized")
	if edges != 1 {
		t.Fatalf("edges = %d, want 1", edges)
	}
}

// TestApplyDeltaNeverWritesInput: neither a canonical input nor one
// ApplyDelta has to normalize is written.
func TestApplyDeltaNeverWritesInput(t *testing.T) {
	g, _ := gen.WebGraph(300, 8, 2)
	ins, del := graph.RandomDelta(g, 5, 5, 4)
	holey := &graph.CSR{Offsets: []uint32{0, 3, 4}, Edges: []uint32{1, 0, 0, 0}, Weights: []float32{1, 2, 0, 1}, Counts: []uint32{2, 1}}
	for _, tc := range []struct {
		in       *graph.CSR
		ins, del []graph.Edge
	}{
		{g, ins, del},
		{holey, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 2, W: 1}}, []graph.Edge{{U: 0, V: 0}}},
	} {
		before := tc.in.Clone()
		if _, err := graph.ApplyDelta(tc.in, tc.ins, tc.del); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.in, before) {
			t.Fatal("ApplyDelta wrote its input")
		}
	}
}
