package core

import (
	"bytes"
	"slices"
	"testing"

	"gveleiden/internal/hashtable"
	"gveleiden/internal/parallel"
	"gveleiden/internal/prng"
)

// pickCase is one vertex's scan: its community d, weighted degree ki
// and size si, and the (community, weight) arcs it accumulates.
type pickCase struct {
	d      uint32
	ki, si float64
	arcs   []pickArc
}

type pickArc struct {
	c uint32
	w float64
}

// pickWorkspace returns a workspace holding only what the picks read:
// the objective, γ, m, Σ′ and, under CPM, the community sizes.
func pickWorkspace(obj Objective, gamma, m float64, sigma, size []float64) *workspace {
	ws := &workspace{opt: Options{Objective: obj, Resolution: gamma}, m: m, sigma: parallel.NewFloat64s(len(sigma))}
	for c, s := range sigma {
		ws.sigma.Set(c, s)
	}
	if obj == ObjectiveCPM {
		ws.sizes = newSizeState(len(size))
		for c, s := range size {
			ws.sizes.csize.Set(c, s)
		}
	}
	return ws
}

// picks accumulates the arcs into a flat array in one order and into a
// dense table in another, and returns the two picks.
func picks(ws *workspace, pc pickCase, flatOrder, tableOrder []pickArc) (choice, choice) {
	var f hashtable.Flat
	for _, a := range flatOrder {
		f.Add(a.c, a.w)
	}
	h := hashtable.New(ws.sigma.Len())
	for _, a := range tableOrder {
		h.Add(a.c, a.w)
	}
	return ws.pickFlat(&f, pc.d, pc.ki, pc.si), ws.pickTable(h, pc.d, pc.ki, pc.si)
}

// refPick is the pick rule written out plainly: visit the candidates
// in ascending id order and keep the first strictly positive gain that
// no later one exceeds.
func refPick(ws *workspace, pc pickCase) choice {
	sum := map[uint32]float64{}
	for _, a := range pc.arcs {
		sum[a.c] += a.w
	}
	best := choice{c: pc.d, kid: sum[pc.d]}
	sd, nd := ws.sigma.Get(int(pc.d)), ws.sizes.comm(pc.d)
	for c := uint32(0); c < uint32(ws.sigma.Len()); c++ {
		kic, ok := sum[c]
		if !ok || c == pc.d {
			continue
		}
		if dq := ws.delta(kic, best.kid, pc.ki, ws.sigma.Get(int(c)), sd, pc.si, ws.sizes.comm(c), nd); dq > best.dq {
			best = choice{c, dq, kic, best.kid}
		}
	}
	return best
}

// TestPickRule pins the move rule on hand-made scans, under both
// accumulators and both first-touch orders: the largest gain wins,
// equal positive gains go to the lower community id, and a vertex with
// no positive gain, zero included, stays with dq 0 and its own kid.
func TestPickRule(t *testing.T) {
	mod := pickWorkspace(ObjectiveModularity, 1, 10, []float64{4, 9, 9, 5, 9, 9, 9, 5, 9, 9}, nil)
	cpm := pickWorkspace(ObjectiveCPM, 1, 10, make([]float64, 10), []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	cases := []struct {
		name string
		ws   *workspace
		pc   pickCase
		want uint32
	}{
		{"tie goes to the lower id", mod, pickCase{d: 0, ki: 2, arcs: []pickArc{{7, 1}, {3, 1}}}, 3},
		{"larger gain beats lower id", mod, pickCase{d: 0, ki: 2, arcs: []pickArc{{3, 1}, {7, 2}}}, 7},
		{"no positive gain stays", mod, pickCase{d: 0, ki: 2, arcs: []pickArc{{0, 3}, {1, 1}, {4, 1}}}, 0},
		{"cpm tie goes to the lower id", cpm, pickCase{d: 5, si: 1, arcs: []pickArc{{9, 3}, {5, 1}, {2, 3}, {6, 1}}}, 2},
		{"cpm zero gain stays", cpm, pickCase{d: 5, si: 1, arcs: []pickArc{{8, 1}, {5, 0.5}, {2, 1.5}}}, 5},
	}
	for _, tc := range cases {
		want := refPick(tc.ws, tc.pc)
		if want.c != tc.want {
			t.Fatalf("%s: reference picks %d, want %d", tc.name, want.c, tc.want)
		}
		if (want.c == tc.pc.d) != (want.dq == 0) {
			t.Fatalf("%s: reference choice %+v", tc.name, want)
		}
		rev := slices.Clone(tc.pc.arcs)
		slices.Reverse(rev)
		for _, orders := range [][2][]pickArc{{tc.pc.arcs, rev}, {rev, tc.pc.arcs}} {
			flat, table := picks(tc.ws, tc.pc, orders[0], orders[1])
			if flat != want || table != want {
				t.Errorf("%s: flat %+v, table %+v, want %+v", tc.name, flat, table, want)
			}
		}
	}
}

// FuzzPickMatchesAcrossAccumulators feeds the same (community, weight)
// arcs, in two random first-touch orders, into a flat array and a dense
// table, with random Σ′, sizes, m and γ under modularity and CPM. Both
// picks must return the reference's target, gain, kic and kid. Weights
// and Σ′ are small integers, so sums are exact in any order and equal
// gains, the tie-break's case, are frequent.
func FuzzPickMatchesAcrossAccumulators(f *testing.F) {
	// Seeds: γ = 1, m = 20, d = 0, ki = 4, si = 1, every Σ′ 5 and size
	// 2; then the arcs, as (community, weight−1) byte pairs.
	head := append([]byte{7, 12, 0, 3, 0}, bytes.Repeat([]byte{5, 1}, hashtable.FlatCap)...)
	tie := []byte{7, 0, 3, 0, 0, 0, 9, 1, 2, 1} // 2 and 9 gain alike
	stay := []byte{0, 3, 0, 3, 4, 0, 5, 0}      // kid 8: no gain is positive
	f.Add(slices.Concat(head, tie), false, uint64(1))
	f.Add(slices.Concat(head, tie), true, uint64(2))
	f.Add(slices.Concat(head, stay), false, uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, cpm bool, seed uint64) {
		const k = hashtable.FlatCap // community ids: never more distinct keys than a Flat holds
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		gamma := float64(next()%16+1) / 8
		m := float64(next()%64 + 8)
		pc := pickCase{d: uint32(next() % k), ki: float64(next()%8 + 1), si: float64(next()%4 + 1)}
		sigma, size := make([]float64, k), make([]float64, k)
		for c := range sigma {
			sigma[c], size[c] = float64(next()%24), float64(next()%6+1)
		}
		for len(data) >= 2 && len(pc.arcs) < 64 {
			pc.arcs = append(pc.arcs, pickArc{uint32(next() % k), float64(next()%4 + 1)})
		}
		obj := ObjectiveModularity
		if cpm {
			obj = ObjectiveCPM
		}
		ws := pickWorkspace(obj, gamma, m, sigma, size)
		rng := prng.NewXorshift32(seed)
		shuffled := func() []pickArc {
			s := slices.Clone(pc.arcs)
			for i := len(s) - 1; i > 0; i-- {
				j := rng.Uintn(uint32(i + 1))
				s[i], s[j] = s[j], s[i]
			}
			return s
		}
		want := refPick(ws, pc)
		flat, table := picks(ws, pc, shuffled(), shuffled())
		if flat != want || table != want {
			t.Fatalf("flat %+v, table %+v, reference %+v", flat, table, want)
		}
	})
}
