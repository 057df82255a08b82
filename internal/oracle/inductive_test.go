package oracle

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// randomStates returns up to m random pair states over [0, n): present
// ones with weights in (0, 8], absent ones, and self-loops.
func randomStates(rng *rand.Rand, n, m int) map[uint64]graph.DeltaState {
	states := map[uint64]graph.DeltaState{}
	for k := 0; k < m && n > 0; k++ {
		u, v := rng.Uint32N(uint32(n)), rng.Uint32N(uint32(n))
		if rng.IntN(8) == 0 {
			v = u
		}
		st := graph.DeltaState{}
		if rng.IntN(3) > 0 {
			st = graph.DeltaState{Present: true, W: float32(1+rng.IntN(32)) / 4}
		}
		states[graph.PairKey(u, v)] = st
	}
	return states
}

// randomMerge draws a canonical base and pair states over it the way
// graph's TestMergeDeltaMatchesSerialReference does (insertions,
// deletions, every arc of a vertex deleted, self-loops, vertex growth,
// an empty overlay), and returns the merge; a tenth of the bases span
// several chunks of CheckCSRFrom's row pass.
func randomMerge(rng *rand.Rand, seed uint64) (g, base *graph.CSR, states map[uint64]graph.DeltaState) {
	bn := rng.IntN(400)
	switch seed % 10 {
	case 0:
		bn = rng.IntN(3) // fewer vertices than chunks
	case 5:
		bn = 3*inductiveGrain + rng.IntN(inductiveGrain)
	}
	base = graph.MergeDelta(&graph.CSR{Offsets: make([]uint32, 1)}, bn, randomStates(rng, bn, 3*bn))
	n := bn
	switch seed % 4 {
	case 0: // mixed
		states = randomStates(rng, bn, 1+rng.IntN(60))
		for u := 0; u < bn; u++ {
			es, _ := base.Neighbors(uint32(u))
			for _, e := range es {
				if rng.IntN(10) == 0 {
					states[graph.PairKey(uint32(u), e)] = graph.DeltaState{}
				}
			}
		}
	case 1: // delete a vertex
		states = randomStates(rng, bn, rng.IntN(20))
		if bn > 0 {
			v := rng.Uint32N(uint32(bn))
			es, _ := base.Neighbors(v)
			for _, e := range es {
				states[graph.PairKey(v, e)] = graph.DeltaState{}
			}
		}
	case 2: // grow
		n = bn + 1 + rng.IntN(40)
		states = randomStates(rng, n, 1+rng.IntN(80))
	case 3: // empty
		states = map[uint64]graph.DeltaState{}
		n = bn + rng.IntN(2)
	}
	return graph.MergeDelta(base, n, states), base, states
}

// touchedRows marks the rows a pair state touches.
func touchedRows(n int, states map[uint64]graph.DeltaState) []bool {
	touched := make([]bool, n)
	for k := range states {
		u, v := graph.SplitPairKey(k)
		touched[u], touched[v] = true, true
	}
	return touched
}

// pickRow returns a random row of g with at least one arc, touched by
// a state or not as asked, preferring one with a non-loop arc; -1 when
// there is none.
func pickRow(rng *rand.Rand, g *graph.CSR, touched []bool, want bool) int {
	var rows, loopOnly []int
	for v := range touched {
		es, _ := g.Neighbors(uint32(v))
		switch {
		case touched[v] != want || len(es) == 0:
		case slices.ContainsFunc(es, func(e uint32) bool { return e != uint32(v) }):
			rows = append(rows, v)
		default:
			loopOnly = append(loopOnly, v)
		}
	}
	if len(rows) == 0 {
		rows = loopOnly
	}
	if len(rows) == 0 {
		return -1
	}
	return rows[rng.IntN(len(rows))]
}

// dropArc removes arc slot from a compact g and shifts the offsets
// after it to match.
func dropArc(g *graph.CSR, slot uint32) {
	g.Edges = slices.Delete(g.Edges, int(slot), int(slot)+1)
	g.Weights = slices.Delete(g.Weights, int(slot), int(slot)+1)
	for v := range g.Offsets {
		if g.Offsets[v] > slot {
			g.Offsets[v]--
		}
	}
}

// injectFault returns a copy of g with one fault in row v: at its
// first non-loop arc (its first arc when it has none), or at its
// offsets. It reports false for a fault row v cannot carry.
func injectFault(g *graph.CSR, v int, fault string) (*graph.CSR, bool) {
	f := g.Clone()
	n := f.NumVertices()
	es, _ := f.Neighbors(uint32(v))
	k := max(slices.IndexFunc(es, func(e uint32) bool { return e != uint32(v) }), 0)
	slot := f.Offsets[v] + uint32(k)
	if fault != "offsets" && fault != "final-offset" && len(es) == 0 {
		return nil, false
	}
	switch fault {
	case "offsets":
		if v == 0 || v >= n {
			return nil, false
		}
		f.Offsets[v] = f.Offsets[v+1] + 1
	case "target":
		f.Edges[slot] = uint32(n + v%3)
	case "nan":
		f.Weights[slot] = float32(math.NaN())
	case "+inf":
		f.Weights[slot] = float32(math.Inf(1))
	case "-inf":
		f.Weights[slot] = float32(math.Inf(-1))
	case "asymmetry":
		f.Weights[slot] += 2e-3
	case "missing-mirror":
		dropArc(f, slot)
	case "bit-flip":
		f.Weights[slot] = math.Float32frombits(math.Float32bits(f.Weights[slot]) ^ 1)
	case "drop":
		dropArc(f, f.Offsets[v]) // the row's first arc, a self-loop if it has one
	case "final-offset":
		f.Edges, f.Weights = append(f.Edges, 0), append(f.Weights, 1)
	default:
		panic("unknown fault " + fault)
	}
	return f, true
}

// checkFromAt runs CheckCSRFrom at 1, 2 and 7 threads and fails unless
// every run reports the same violations.
func checkFromAt(t *testing.T, pool *parallel.Pool, g, base *graph.CSR, states map[uint64]graph.DeltaState, label string) Report {
	t.Helper()
	var first Report
	for i, threads := range []int{1, 2, 7} {
		var r Report
		CheckCSRFrom(&r, pool, g, base, states, threads)
		if i == 0 {
			first = r
		} else if r.Checks != first.Checks || !slices.Equal(r.Violations, first.Violations) {
			t.Fatalf("%s, %d threads: %v, but %v at 1 thread", label, threads, r.Violations, first.Violations)
		}
	}
	return first
}

// TestCheckCSRFromAcceptsMerges: every unfaulted merge of a random
// canonical base with random pair states passes the inductive check,
// and the full check, at 1, 2 and 7 threads.
func TestCheckCSRFromAcceptsMerges(t *testing.T) {
	pool := parallel.NewPool(7)
	defer pool.Close()
	for seed := uint64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 5))
		g, base, states := randomMerge(rng, seed)
		label := fmt.Sprintf("seed %d (%d vertices, %d states)", seed, g.NumVertices(), len(states))
		if r := checkFromAt(t, pool, g, base, states, label); !r.Ok() || r.Checks != 1 {
			t.Fatalf("%s: the inductive check rejected a merge: %v", label, r.Violations)
		}
		var full Report
		CheckCSR(&full, g)
		if !full.Ok() {
			t.Fatalf("%s: the full check rejected a merge: %v", label, full.Violations)
		}
	}
}

// TestCheckCSRFromRejectsFaults injects one fault into merged graphs,
// in a row a pair state touches and in a row it copies: the fault
// classes of TestCheckCSROnMatchesSerial that a compact graph carries
// (non-monotone offsets, an out-of-range target, NaN, ±Inf, an
// asymmetry of 2e-3, a missing mirror), a flipped low bit of a weight,
// a dropped arc with the offsets shifted to match (a self-loop where
// the row has one, which the full check cannot see), and a final
// offset short of the arc count. The inductive check must reject each
// as csr-wellformed, with the same text at 1, 2 and 7 threads.
func TestCheckCSRFromRejectsFaults(t *testing.T) {
	pool := parallel.NewPool(7)
	defer pool.Close()
	faults := []string{"offsets", "target", "nan", "+inf", "-inf", "asymmetry", "missing-mirror", "bit-flip", "drop", "final-offset"}
	hits := map[string]int{}
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		g, base, states := randomMerge(rng, seed)
		touched := touchedRows(g.NumVertices(), states)
		for _, fault := range faults {
			for _, inTouched := range []bool{true, false} {
				v := pickRow(rng, g, touched, inTouched)
				if fault == "offsets" || fault == "final-offset" {
					if v < 0 {
						v = g.NumVertices() - 1
					}
				}
				if v < 0 {
					continue
				}
				f, ok := injectFault(g, v, fault)
				if !ok {
					continue
				}
				label := fmt.Sprintf("seed %d: %s in row %d (touched %v)", seed, fault, v, touched[v])
				r := checkFromAt(t, pool, f, base, states, label)
				if len(r.Violations) != 1 || r.Violations[0].Invariant != "csr-wellformed" {
					t.Fatalf("%s: inductive check reported %v, want one csr-wellformed violation", label, r.Violations)
				}
				hits[fmt.Sprintf("%s/%v", fault, touched[v])]++
			}
		}
	}
	for _, fault := range faults {
		for _, inTouched := range []bool{true, false} {
			if fault == "final-offset" {
				continue // one fault for the whole graph, wherever the row fell
			}
			if hits[fmt.Sprintf("%s/%v", fault, inTouched)] == 0 {
				t.Errorf("no %s fault was placed in a row with touched = %v", fault, inTouched)
			}
		}
	}
}

// serialMergeAny is graph.MergeDelta's serial merge without its
// precondition: the base rows may be unsorted or repeat a target, so
// the state arcs of a vertex are merged into its base list as it
// stands.
func serialMergeAny(base *graph.CSR, n int, states map[uint64]graph.DeltaState) *graph.CSR {
	out := &graph.CSR{Offsets: make([]uint32, n+1)}
	arcs := make([][]stateArc, n)
	for k, st := range states {
		u, v := graph.SplitPairKey(k)
		arcs[u] = append(arcs[u], stateArc{u, v, st})
		if u != v {
			arcs[v] = append(arcs[v], stateArc{v, u, st})
		}
	}
	var b rowBuf
	for v := 0; v < n; v++ {
		slices.SortFunc(arcs[v], func(a, b stateArc) int { return cmp.Compare(a.dst, b.dst) })
		b.merge(base, v, arcs[v])
		out.Edges, out.Weights = append(out.Edges, b.es...), append(out.Weights, b.ws...)
		out.Offsets[v+1] = uint32(len(out.Edges))
	}
	return out
}

// TestCheckCSRFromRejectsUnsortedTouchedRow: the full check accepts a
// symmetric graph whose rows are out of order, but a merge that read
// such a base carries the disorder into the rows it touches, where the
// merge semantics (a state arc replaces the base arc with its target)
// need each target once. The inductive check must reject a touched row
// that is not strictly ascending even when it equals its merged base
// row, and accept the rows it copies from that base.
func TestCheckCSRFromRejectsUnsortedTouchedRow(t *testing.T) {
	pool := parallel.NewPool(7)
	defer pool.Close()
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 23))
		bn := 50 + rng.IntN(300)
		base := graph.MergeDelta(&graph.CSR{Offsets: make([]uint32, 1)}, bn, randomStates(rng, bn, 3*bn))
		v := pickRow(rng, base, make([]bool, bn), false)
		if v < 0 || base.Degree(uint32(v)) < 2 {
			continue
		}
		lo := base.Offsets[v]
		// Reverse v's row: still symmetric, so the full check passes.
		slices.Reverse(base.Edges[lo:base.Offsets[v+1]])
		slices.Reverse(base.Weights[lo:base.Offsets[v+1]])
		var full Report
		CheckCSR(&full, base)
		if !full.Ok() {
			t.Fatalf("seed %d: the full check rejected a reversed row: %v", seed, full.Violations)
		}
		label := fmt.Sprintf("seed %d, row %d", seed, v)
		// A state on a pair away from v leaves v's row copied: accepted.
		copied := map[uint64]graph.DeltaState{graph.PairKey(uint32((v+1)%bn), uint32((v+2)%bn)): {Present: true, W: 1}}
		if r := checkFromAt(t, pool, serialMergeAny(base, bn, copied), base, copied, label+" copied"); !r.Ok() {
			t.Fatalf("%s: a copied unsorted row was rejected: %v", label, r.Violations)
		}
		// A state on one of v's pairs touches it: rejected.
		touched := map[uint64]graph.DeltaState{graph.PairKey(uint32(v), uint32(rng.IntN(bn))): {Present: true, W: 2}}
		r := checkFromAt(t, pool, serialMergeAny(base, bn, touched), base, touched, label+" touched")
		if len(r.Violations) != 1 || !strings.Contains(r.Violations[0].Detail, "not strictly ascending") {
			t.Fatalf("%s: inductive check reported %v, want a row out of order", label, r.Violations)
		}
	}
}

// TestCheckCSRFromShape: a g that cannot be a merge of base is
// rejected as csr-wellformed before any row is read: a malformed
// layout (the texts of CSR.ValidateOn), a holey g or base, fewer
// vertices than base, a leading gap, and a pair state past the vertex
// count.
func TestCheckCSRFromShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	base := graph.MergeDelta(&graph.CSR{Offsets: make([]uint32, 1)}, 40, randomStates(rng, 40, 120))
	states := randomStates(rng, 40, 10)
	g := graph.MergeDelta(base, 40, states)
	holey := g.Clone()
	holey.Counts = make([]uint32, 40)
	for v := range holey.Counts {
		holey.Counts[v] = holey.Degree(uint32(v))
	}
	gap := g.Clone()
	gap.Offsets[0] = 1
	outside := map[uint64]graph.DeltaState{graph.PairKey(3, 45): {Present: true, W: 1}}
	for _, tc := range []struct {
		name   string
		g      *graph.CSR
		base   *graph.CSR
		states map[uint64]graph.DeltaState
		want   string
	}{
		{"no offsets", &graph.CSR{}, base, states, "offsets array must have length ≥ 1"},
		{"weights short", &graph.CSR{Offsets: []uint32{0, 2}, Edges: []uint32{0, 0}, Weights: []float32{1}}, base, states, "edges/weights length mismatch"},
		{"holey g", holey, base, states, "holey, but a merge is compact"},
		{"holey base", g, holey, states, "the base is holey"},
		{"shrunk", &graph.CSR{Offsets: []uint32{0}}, base, nil, "fewer than the base's 40"},
		{"leading gap", gap, base, states, "first offset 1"},
		{"state outside", graph.MergeDelta(base, 40, nil), base, outside, "pair state {3,45} outside the 40 vertices"},
	} {
		var r Report
		CheckCSRFrom(&r, nil, tc.g, tc.base, tc.states, 2)
		if len(r.Violations) != 1 || r.Violations[0].Invariant != "csr-wellformed" || !strings.Contains(r.Violations[0].Detail, tc.want) {
			t.Fatalf("%s: %v, want a csr-wellformed violation containing %q", tc.name, r.Violations, tc.want)
		}
	}
}
