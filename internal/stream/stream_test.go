package stream

import (
	"errors"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// empty returns a stream graph with n vertices and no edges.
func empty(n int) *Graph {
	return FromCSR(&graph.CSR{Offsets: make([]uint32, n+1)})
}

// weight returns the weight of edge {u,v}, 0 if absent.
func (s *Graph) weight(u, v uint32) float32 {
	w, _ := s.lookup(u, v)
	return w
}

// has reports whether the undirected edge {u,v} exists.
func (s *Graph) has(u, v uint32) bool {
	_, ok := s.lookup(u, v)
	return ok
}

// mustApply applies a batch, failing the test on error.
func mustApply(t *testing.T, s *Graph, ins, del []graph.Edge) {
	t.Helper()
	if err := s.Apply(ins, del); err != nil {
		t.Fatal(err)
	}
}

func TestBasicMutation(t *testing.T) {
	s := empty(3)
	mustApply(t, s, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}}, nil)
	if s.NumEdges() != 2 || s.n != 3 {
		t.Fatalf("edges=%d vertices=%d", s.NumEdges(), s.n)
	}
	if !s.has(0, 1) || !s.has(1, 0) {
		t.Fatal("symmetry broken")
	}
	if s.weight(1, 2) != 2 {
		t.Fatalf("weight = %v", s.weight(1, 2))
	}
	mustApply(t, s, []graph.Edge{{U: 0, V: 1, W: 3}}, nil) // reinforce
	if s.weight(0, 1) != 4 || s.NumEdges() != 2 {
		t.Fatal("reinforcement broken")
	}
	mustApply(t, s, nil, []graph.Edge{{U: 0, V: 1}})
	if s.has(1, 0) || s.NumEdges() != 1 {
		t.Fatal("remove left residue")
	}
	if err := s.Apply(nil, []graph.Edge{{U: 0, V: 1}}); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestVertexGrowthAndLoops(t *testing.T) {
	s := empty(0)
	mustApply(t, s, []graph.Edge{{U: 5, V: 5, W: 2}}, nil) // loop on a new vertex
	if s.n != 6 || s.NumEdges() != 1 {
		t.Fatalf("v=%d e=%d", s.n, s.NumEdges())
	}
	g := s.Snapshot()
	if g.ArcWeight(5, 5) != 2 {
		t.Fatalf("loop weight = %v", g.ArcWeight(5, 5))
	}
	if g.VertexWeight(5) != 2 {
		t.Fatalf("K_5 = %v", g.VertexWeight(5))
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	g, _ := gen.WebGraph(500, 8, 3)
	s := FromCSR(g)
	if s.NumEdges() != g.NumUndirectedEdges() {
		t.Fatalf("edges %d vs %d", s.NumEdges(), g.NumUndirectedEdges())
	}
	snap := s.Snapshot()
	if snap.NumArcs() != g.NumArcs() {
		t.Fatalf("arcs %d vs %d", snap.NumArcs(), g.NumArcs())
	}
	if snap.TotalWeight() != g.TotalWeight() {
		t.Fatal("round trip changed total weight")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

// assertSameCSR fails unless a and b are bit-identical CSRs: same
// vertex count and the same sorted adjacency with equal weights.
func assertSameCSR(t *testing.T, a, b *graph.CSR) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertex counts differ: %d vs %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumArcs() != b.NumArcs() {
		t.Fatalf("arc counts differ: %d vs %d", a.NumArcs(), b.NumArcs())
	}
	n := a.NumVertices()
	for i := 0; i < n; i++ {
		e1, w1 := a.Neighbors(uint32(i))
		e2, w2 := b.Neighbors(uint32(i))
		if len(e1) != len(e2) {
			t.Fatalf("vertex %d: degree %d vs %d", i, len(e1), len(e2))
		}
		for k := range e1 {
			if e1[k] != e2[k] || w1[k] != w2[k] {
				t.Fatalf("vertex %d arc %d differs: (%d,%g) vs (%d,%g)",
					i, k, e1[k], w1[k], e2[k], w2[k])
			}
		}
	}
}

func TestApplyMatchesApplyDelta(t *testing.T) {
	g, _ := gen.SocialNetwork(600, 10, 6, 0.3, 5)
	ins, del := graph.RandomDelta(g, 40, 30, 9)

	viaRebuild, err := graph.ApplyDelta(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}

	s := FromCSR(g)
	if err := s.Apply(ins, del); err != nil {
		t.Fatal(err)
	}
	assertSameCSR(t, s.Snapshot(), viaRebuild)
}

// TestApplyDifferentialRandomized is the unified-semantics oracle: on
// randomized batches — duplicate insertions, delete-then-reinsert of
// the same edge, negative (cancelling) weights — stream.Apply+Snapshot
// and graph.ApplyDelta must produce bit-identical CSRs, and must agree
// on whether the batch is valid at all. Each seed runs a sequence of
// batches and snapshots only at random points, so the base rolls over
// at some batches while the overlay spans several at others; between
// snapshots the lookups must already answer from the overlay.
func TestApplyDifferentialRandomized(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g, _ := gen.SocialNetwork(300, 8, 5, 0.3, seed+1)
		rng := seed*2654435761 + 17
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		n := uint32(g.NumVertices())
		s := FromCSR(g)
		cur := g
		for batch := uint64(0); batch < 6; batch++ {
			// Deletions: existing edges, with an occasional duplicate.
			_, del := graph.RandomDelta(cur, 0, 12, seed+3+batch)
			if next()%5 == 0 && len(del) > 0 {
				del = append(del, del[int(next()%uint64(len(del)))]) // duplicate → invalid
			}
			// Insertions: fresh edges, reinforcements, re-inserts of
			// deleted edges, duplicates within the batch, and negative
			// weights.
			var ins []graph.Edge
			for i := 0; i < 30; i++ {
				var e graph.Edge
				switch next() % 4 {
				case 0: // random pair (may exist, may repeat)
					e = graph.Edge{U: uint32(next()) % n, V: uint32(next()) % n, W: float32(next()%5) + 1}
				case 1: // re-insert a deleted edge
					if len(del) > 0 {
						d := del[int(next()%uint64(len(del)))]
						e = graph.Edge{U: d.U, V: d.V, W: 2}
					} else {
						e = graph.Edge{U: uint32(next()) % n, V: uint32(next()) % n, W: 1}
					}
				case 2: // negative weight: cancels or dips an existing edge
					e = graph.Edge{U: uint32(next()) % n, V: uint32(next()) % n, W: -float32(next()%3) - 1}
				case 3: // duplicate of an earlier insertion
					if len(ins) > 0 {
						e = ins[int(next()%uint64(len(ins)))]
					} else {
						e = graph.Edge{U: uint32(next()) % n, V: uint32(next()) % n, W: 1}
					}
				}
				ins = append(ins, e)
			}

			viaRebuild, errRebuild := graph.ApplyDelta(cur, ins, del)
			errStream := s.Apply(ins, del)
			if (errRebuild == nil) != (errStream == nil) {
				t.Fatalf("seed %d batch %d: appliers disagree on validity: rebuild=%v stream=%v",
					seed, batch, errRebuild, errStream)
			}
			if errRebuild == nil {
				cur = viaRebuild // a rejected batch must leave the stream graph untouched
			}
			if next()%2 == 0 {
				assertSameCSR(t, s.Snapshot(), cur)
			} else {
				assertSameLookups(t, s, cur, append(ins, del...))
			}
		}
		assertSameCSR(t, s.Snapshot(), cur)
		if err := cur.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// assertSameLookups fails unless s answers like g — vertex and edge
// counts, and presence and weight of every given pair — without taking
// a snapshot.
func assertSameLookups(t *testing.T, s *Graph, g *graph.CSR, pairs []graph.Edge) {
	t.Helper()
	if s.n != g.NumVertices() || s.NumEdges() != g.NumUndirectedEdges() {
		t.Fatalf("counts %d/%d, want %d/%d", s.n, s.NumEdges(), g.NumVertices(), g.NumUndirectedEdges())
	}
	for _, e := range pairs {
		if s.has(e.U, e.V) != g.HasArc(e.U, e.V) || s.weight(e.U, e.V) != float32(g.ArcWeight(e.U, e.V)) {
			t.Fatalf("edge {%d,%d}: %v/%g, want %v/%g", e.U, e.V,
				s.has(e.U, e.V), s.weight(e.U, e.V), g.HasArc(e.U, e.V), g.ArcWeight(e.U, e.V))
		}
	}
}

// TestSnapshotSharedBaseIsNeverWritten: FromCSR adopts a canonical
// input and Snapshot hands out the base it keeps, so later Apply calls
// must build a new CSR and leave every earlier one bit-identical.
func TestSnapshotSharedBaseIsNeverWritten(t *testing.T) {
	g, _ := gen.WebGraph(400, 8, 7)
	gWant := g.Clone()
	s := FromCSR(g)
	if s.Snapshot() != g {
		t.Fatal("a canonical input was not adopted as the base")
	}
	ins, del := graph.RandomDelta(g, 20, 20, 3)
	if err := s.Apply(ins, del); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	snapWant := snap.Clone()
	if s.Snapshot() != snap {
		t.Fatal("Snapshot with nothing pending did not return the base")
	}

	ins, del = graph.RandomDelta(snap, 20, 20, 5)
	if err := s.Apply(ins, del); err != nil {
		t.Fatal(err)
	}
	es, _ := snap.Neighbors(3)
	mustApply(t, s, nil, []graph.Edge{{U: 3, V: es[0]}})                         // a base edge
	mustApply(t, s, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 450, V: 2, W: 1}}, nil) // grows the vertex set
	if next := s.Snapshot(); next == snap || next.NumVertices() != 451 {
		t.Fatalf("pending mutations gave snapshot %p with %d vertices", next, next.NumVertices())
	}
	if !reflect.DeepEqual(g, gWant) || !reflect.DeepEqual(snap, snapWant) {
		t.Fatal("a later mutation wrote an earlier snapshot")
	}
}

// TestSnapshotMergeHandsOutItsInputs: SnapshotMerge returns the base
// its merge read and the pair states it set, which merge back into the
// snapshot and which later mutations leave alone; with nothing pending
// it merged nothing, and its base is the snapshot.
func TestSnapshotMergeHandsOutItsInputs(t *testing.T) {
	g, _ := gen.WebGraph(400, 8, 7)
	s := FromCSR(g)
	if snap, m := s.SnapshotMerge(nil, 2); snap != g || m.Base != g || len(m.States) != 0 {
		t.Fatalf("nothing pending: snapshot %p, merge of %p with %d states; want %p alone", snap, m.Base, len(m.States), g)
	}
	ins, del := graph.RandomDelta(g, 20, 20, 3)
	mustApply(t, s, ins, del)
	mustApply(t, s, []graph.Edge{{U: 450, V: 2, W: 1}}, nil)
	snap, m := s.SnapshotMerge(nil, 2)
	if m.Base != g || len(m.States) == 0 {
		t.Fatalf("the merge read %p with %d states, want %p and the pending pairs", m.Base, len(m.States), g)
	}
	assertSameCSR(t, graph.MergeDelta(m.Base, snap.NumVertices(), m.States), snap)
	states := maps.Clone(m.States)
	mustApply(t, s, []graph.Edge{{U: 0, V: 1, W: 2}}, nil)
	next, m2 := s.SnapshotMerge(nil, 2)
	if m2.Base != snap || next == snap || !maps.Equal(m.States, states) {
		t.Fatal("the next merge did not read the last snapshot, or wrote the states handed out before")
	}
}

// fromCSRReference spells out FromCSR's contract on a map: each arc
// (i,j), i ≤ j, in storage order, added to its pair — non-finite
// weights skipped, parallel arcs summed, an edge whose sum reaches ≤ 0
// cancelled.
func fromCSRReference(g *graph.CSR) *graph.CSR {
	ref := map[[2]uint32]float32{}
	var order [][2]uint32
	for i := 0; i < g.NumVertices(); i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			w := ws[k]
			if uint32(i) > e || math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
				continue
			}
			p := [2]uint32{uint32(i), e}
			if _, ok := ref[p]; !ok {
				order = append(order, p)
			}
			if sum := ref[p] + w; sum <= 0 {
				delete(ref, p)
			} else {
				ref[p] = sum
			}
		}
	}
	var edges []graph.Edge
	for _, p := range order {
		if w, ok := ref[p]; ok {
			edges = append(edges, graph.Edge{U: p[0], V: p[1], W: w})
			delete(ref, p)
		}
	}
	return graph.FromEdges(g.NumVertices(), edges)
}

// TestFromCSRNonCanonicalInputs: holey, unsorted, duplicate-arc,
// non-positive-weight and asymmetric (missing or reweighted mirror
// arcs) inputs are not adopted; FromCSR replaces them with the graph
// fromCSRReference describes. graph.ApplyDelta normalizes them the
// same way, so on every shape it equals FromCSR, Apply and Snapshot —
// for a valid batch and for one deleting an edge the normalization
// dropped.
func TestFromCSRNonCanonicalInputs(t *testing.T) {
	g, _ := gen.SocialNetwork(300, 8, 5, 0.3, 4)
	n := g.NumVertices()
	shapes := map[string]func(i int, es []uint32, ws []float32) ([]uint32, []float32){
		"unsorted": func(i int, es []uint32, ws []float32) ([]uint32, []float32) {
			slices.Reverse(es)
			slices.Reverse(ws)
			return es, ws
		},
		"duplicate": func(i int, es []uint32, ws []float32) ([]uint32, []float32) {
			if len(es) > 0 && i%3 == 0 {
				es, ws = append(es, es[0]), append(ws, 0.5)
			}
			return es, ws
		},
		"nonpositive": func(i int, es []uint32, ws []float32) ([]uint32, []float32) {
			for k := range ws {
				if (i+k)%4 == 0 {
					ws[k] = -float32(k % 2) // 0 or -1
				}
			}
			return es, ws
		},
		"asymmetric": func(i int, es []uint32, ws []float32) ([]uint32, []float32) {
			if len(es) > 0 && i%5 == 0 {
				return es[1:], ws[1:]
			}
			return es, ws
		},
		"reweighted": func(i int, es []uint32, ws []float32) ([]uint32, []float32) {
			if len(ws) > 0 && i%3 == 0 {
				ws[0] *= 2 // the mirror arc keeps the old weight
			}
			return es, ws
		},
		"mirrorless": func(i int, es []uint32, ws []float32) ([]uint32, []float32) {
			// Drop (i,e) when i is e's largest lower neighbour: (e,i) is
			// then e's last lower arc, and nothing after it can match.
			for k := len(es) - 1; k >= 0; k-- {
				e := es[k]
				if e <= uint32(i) || e%4 != 0 {
					continue
				}
				nb, _ := g.Neighbors(e)
				if below, _ := slices.BinarySearch(nb, e); nb[below-1] == uint32(i) {
					es, ws = slices.Delete(es, k, k+1), slices.Delete(ws, k, k+1)
				}
			}
			return es, ws
		},
		"holey": func(i int, es []uint32, ws []float32) ([]uint32, []float32) { return es, ws },
	}
	for name, shape := range shapes {
		in := &graph.CSR{Offsets: make([]uint32, n+1)}
		if name == "holey" {
			in.Counts = make([]uint32, n)
		}
		for i := 0; i < n; i++ {
			es, ws := g.Neighbors(uint32(i))
			es, ws = shape(i, slices.Clone(es), slices.Clone(ws))
			in.Edges = append(in.Edges, es...)
			in.Weights = append(in.Weights, ws...)
			if in.Counts != nil {
				in.Counts[i] = uint32(len(es))
				in.Edges = append(in.Edges, 0, 0) // the hole
				in.Weights = append(in.Weights, 0, 0)
			}
			in.Offsets[i+1] = uint32(len(in.Edges))
		}
		want := fromCSRReference(in)
		s := FromCSR(in)
		got := s.Snapshot()
		if got == in {
			t.Fatalf("%s: a non-canonical input was adopted", name)
		}
		assertSameCSR(t, got, want)
		if s.NumEdges() != want.NumUndirectedEdges() {
			t.Fatalf("%s: NumEdges %d, want %d", name, s.NumEdges(), want.NumUndirectedEdges())
		}

		ins, del := graph.RandomDelta(want, 10, 10, 5)
		ins = append(ins, graph.Edge{U: 7, V: 7, W: 1}, graph.Edge{U: uint32(n), V: 3, W: 2})
		viaApplyDelta, err := graph.ApplyDelta(in, ins, del)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustApply(t, s, ins, del)
		assertSameCSR(t, s.Snapshot(), viaApplyDelta)

		dropped := graph.Edge{U: 0, V: uint32(n)} // missing when nothing was dropped
	search:
		for i := 0; i < n; i++ {
			es, _ := in.Neighbors(uint32(i))
			for _, e := range es {
				if !want.HasArc(uint32(i), e) {
					dropped = graph.Edge{U: uint32(i), V: e}
					break search
				}
			}
		}
		_, errApplyDelta := graph.ApplyDelta(in, nil, []graph.Edge{dropped})
		errStream := FromCSR(in).Apply(nil, []graph.Edge{dropped})
		if errApplyDelta == nil || errStream == nil || errors.Unwrap(errStream).Error() != errApplyDelta.Error() {
			t.Fatalf("%s: deleting {%d,%d}: ApplyDelta %v, stream %v", name, dropped.U, dropped.V, errApplyDelta, errStream)
		}
	}
}

func TestApplyRejectsMissingDeletion(t *testing.T) {
	s := empty(3)
	mustApply(t, s, []graph.Edge{{U: 0, V: 1, W: 1}}, nil)
	err := s.Apply(nil, []graph.Edge{{U: 1, V: 2}})
	if err == nil {
		t.Fatal("deleting a missing edge must error")
	}
}

// TestApplyFailedBatchIsNoOp is the regression test for the
// partial-mutation bug: Apply used to delete edges one at a time and
// return mid-batch on the first missing deletion, leaving earlier
// deletions applied. A rejected batch must leave NumEdges, weights, and
// adjacency bit-identical.
func TestApplyFailedBatchIsNoOp(t *testing.T) {
	g, _ := gen.WebGraph(400, 8, 7)
	s := FromCSR(g)
	before := s.Snapshot()
	edgesBefore := s.NumEdges()

	ins, del := graph.RandomDelta(before, 10, 10, 11)
	// Poison the batch *after* valid deletions, so the old
	// apply-as-you-validate behaviour would have mutated first.
	del = append(del, graph.Edge{U: 0, V: 0}) // self-loop that does not exist

	if err := s.Apply(ins, del); err == nil {
		t.Fatal("batch with a missing deletion must be rejected")
	}
	if s.NumEdges() != edgesBefore {
		t.Fatalf("NumEdges mutated: %d vs %d", s.NumEdges(), edgesBefore)
	}
	assertSameCSR(t, s.Snapshot(), before)

	// Duplicate deletions poison a batch the same way.
	ins2, del2 := graph.RandomDelta(before, 5, 5, 13)
	del2 = append(del2, del2[0])
	if err := s.Apply(ins2, del2); err == nil {
		t.Fatal("batch with a duplicate deletion must be rejected")
	}
	assertSameCSR(t, s.Snapshot(), before)

	// A non-finite insertion weight poisons a batch too.
	if err := s.Apply([]graph.Edge{{U: 1, V: 2, W: float32(math.NaN())}}, nil); err == nil {
		t.Fatal("batch with a NaN insertion must be rejected")
	}
	assertSameCSR(t, s.Snapshot(), before)

	// The valid prefix of the poisoned batch still applies on its own.
	if err := s.Apply(ins, del[:len(del)-1]); err != nil {
		t.Fatal(err)
	}
}

// TestAddEdgeWeightValidation mirrors the reader validation on the
// mutable ingest path, one single-insertion batch at a time: a
// non-finite weight is rejected, a float32 overflow of the summed
// weight is rejected, and a sum reaching zero or below cancels the edge
// instead of materializing a CSR the readers would refuse.
func TestAddEdgeWeightValidation(t *testing.T) {
	add := func(s *Graph, u, v uint32, w float32) error {
		return s.Apply([]graph.Edge{{U: u, V: v, W: w}}, nil)
	}
	s := empty(2)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := add(s, 0, 1, float32(w)); err == nil {
			t.Fatalf("Apply accepted non-finite weight %v", w)
		}
	}
	if s.NumEdges() != 0 || s.n != 2 {
		t.Fatal("rejected insertion mutated the graph")
	}

	// Overflowing sum.
	if err := add(s, 0, 1, math.MaxFloat32); err != nil {
		t.Fatal(err)
	}
	if err := add(s, 0, 1, math.MaxFloat32); err == nil {
		t.Fatal("Apply accepted a float32-overflowing sum")
	}
	if s.weight(0, 1) != math.MaxFloat32 {
		t.Fatal("rejected insertion mutated the weight")
	}

	// Cancellation to zero removes the edge entirely.
	s2 := empty(0)
	if err := add(s2, 3, 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := add(s2, 3, 4, -2); err != nil {
		t.Fatal(err)
	}
	if s2.has(3, 4) || s2.has(4, 3) || s2.NumEdges() != 0 {
		t.Fatal("zero-sum edge survived")
	}
	// Driving below zero removes it too.
	if err := add(s2, 3, 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := add(s2, 3, 4, -5); err != nil {
		t.Fatal(err)
	}
	if s2.has(3, 4) || s2.NumEdges() != 0 {
		t.Fatal("negative-sum edge survived")
	}
	// A fresh negative insertion never creates an edge, but still grows
	// the vertex set (the endpoints were mentioned).
	if err := add(s2, 7, 8, -1); err != nil {
		t.Fatal(err)
	}
	if s2.has(7, 8) || s2.n != 9 {
		t.Fatalf("fresh negative edge: has=%v n=%d", s2.has(7, 8), s2.n)
	}
	// Snapshots of a cancelled-edge graph stay reader-clean.
	if err := s2.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDrivesDynamicLeiden(t *testing.T) {
	// End-to-end: stream mutations + dynamic Leiden across 4 batches.
	g0, _ := gen.SocialNetwork(1200, 12, 10, 0.3, 21)
	s := FromCSR(g0)
	opt := core.DefaultOptions()
	opt.Threads = 2
	res := core.Leiden(g0, opt)
	for batch := 0; batch < 4; batch++ {
		snap := s.Snapshot()
		ins, del := graph.RandomDelta(snap, 20, 10, uint64(batch)+40)
		if err := s.Apply(ins, del); err != nil {
			t.Fatal(err)
		}
		next := s.Snapshot()
		res = core.LeidenDynamic(next, res.Membership,
			core.Delta{Insertions: ins, Deletions: del}, core.DynamicFrontier, opt)
		if err := quality.ValidatePartition(next, res.Membership); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if ds := quality.CountDisconnected(next, res.Membership, 2); ds.Disconnected != 0 {
			t.Fatalf("batch %d: %d disconnected", batch, ds.Disconnected)
		}
	}
}

// TestStreamPropertyVsReference: any sequence of single-edge batches
// leaves the stream graph equal to a naive map-of-edges reference.
func TestStreamPropertyVsReference(t *testing.T) {
	type op struct {
		U, V   uint8
		W      uint8
		Remove bool
	}
	err := quick.Check(func(ops []op) bool {
		s := empty(0)
		ref := map[[2]uint32]float32{}
		key := func(u, v uint32) [2]uint32 {
			if u > v {
				u, v = v, u
			}
			return [2]uint32{u, v}
		}
		for _, o := range ops {
			u, v := uint32(o.U%32), uint32(o.V%32)
			if o.Remove {
				err := s.Apply(nil, []graph.Edge{{U: u, V: v}})
				_, want := ref[key(u, v)]
				if (err == nil) != want {
					return false
				}
				delete(ref, key(u, v))
			} else {
				w := float32(o.W%8) + 1
				if s.Apply([]graph.Edge{{U: u, V: v, W: w}}, nil) != nil {
					return false
				}
				ref[key(u, v)] += w
			}
		}
		if s.NumEdges() != int64(len(ref)) {
			return false
		}
		for k, w := range ref {
			if s.weight(k[0], k[1]) != w {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
