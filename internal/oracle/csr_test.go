package oracle

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// serialValidate is graph.CSR.Validate as it was before its passes ran
// on a pool, kept as the reference: one sequential pass per check, and
// the counting-sort transpose for symmetry.
func serialValidate(g *graph.CSR) error {
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
		return serialSymmetry(g)
	}
	return nil
}

// serialSymmetry is the sequential counting-sort symmetry pass that
// SymmetryOn replaced.
func serialSymmetry(g *graph.CSR) error {
	n := g.NumVertices()
	start := make([]uint32, n+1)
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

// serialCheckCSR is CheckCSR as it was before its passes ran on a
// pool: Validate, then Validate on the compacted copy of a holey CSR,
// then the compacted weights in order.
func serialCheckCSR(r *Report, g *graph.CSR) {
	r.Checks++
	if err := serialValidate(g); err != nil {
		r.addf("csr-wellformed", "%v", err)
		return
	}
	c := g.Compact()
	if c != g {
		if err := serialValidate(c); err != nil {
			r.addf("csr-wellformed", "compacted: %v", err)
			return
		}
	}
	for i, w := range c.Weights {
		if math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
			r.addf("csr-wellformed", "non-finite weight %g at arc %d", w, i)
			return
		}
	}
}

// faultyCSR lays out a random symmetric graph with self-loops over n
// vertices, sorted or shuffled, compact or holey (a gap of up to two
// junk slots after each list), with one injected fault.
func faultyCSR(rng *rand.Rand, n int, holey, sorted bool, fault string) *graph.CSR {
	adj := make([][]graph.Edge, n)
	seen := map[uint64]bool{}
	for k := 0; k < 3*n; k++ {
		u, v := uint32(rng.IntN(n)), uint32(rng.IntN(n))
		if sorted && seen[graph.PairKey(u, v)] {
			continue // sorted lists are strictly ascending: one arc per pair
		}
		seen[graph.PairKey(u, v)] = true
		w := float32(1+rng.IntN(32)) / 4
		adj[u] = append(adj[u], graph.Edge{U: u, V: v, W: w})
		if u != v {
			adj[v] = append(adj[v], graph.Edge{U: v, V: u, W: w})
		}
	}
	for _, arcs := range adj {
		if sorted {
			slices.SortFunc(arcs, func(a, b graph.Edge) int { return cmp.Compare(a.V, b.V) })
		} else {
			rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
		}
	}
	// A vertex with a non-loop arc, for the arc faults; the last such
	// vertex half of the time, so faults reach the last chunk of a pass.
	var carriers []int
	for u, arcs := range adj {
		if slices.ContainsFunc(arcs, func(a graph.Edge) bool { return a.V != uint32(u) }) {
			carriers = append(carriers, u)
		}
	}
	at := carriers[len(carriers)-1]
	if rng.IntN(2) == 0 {
		at = carriers[rng.IntN(len(carriers))]
	}
	arc := slices.IndexFunc(adj[at], func(a graph.Edge) bool { return a.V != uint32(at) })
	switch fault {
	case "asymmetry":
		adj[at][arc].W += 2e-3
	case "missing-mirror":
		adj[at] = slices.Delete(adj[at], arc, arc+1)
	}

	g := &graph.CSR{Offsets: make([]uint32, n+1)}
	if holey {
		g.Counts = make([]uint32, n)
	}
	for u, arcs := range adj {
		for _, a := range arcs {
			g.Edges = append(g.Edges, a.V)
			g.Weights = append(g.Weights, a.W)
		}
		if holey {
			g.Counts[u] = uint32(len(arcs))
			for gap := rng.IntN(3); gap > 0; gap-- {
				g.Edges = append(g.Edges, uint32(rng.IntN(2*n)))
				g.Weights = append(g.Weights, float32(math.NaN()))
			}
		}
		g.Offsets[u+1] = uint32(len(g.Edges))
	}
	slot := g.Offsets[at] + uint32(arc)
	v := 1 + rng.IntN(n-1)
	if rng.IntN(2) == 0 {
		v = n - 1
	}
	switch fault {
	case "offsets":
		g.Offsets[v] = g.Offsets[v+1] + 1
	case "count":
		g.Counts[v] = g.Offsets[v+1] - g.Offsets[v] + 1
	case "target":
		g.Edges[slot] = uint32(n + rng.IntN(3))
	case "nan":
		g.Weights[slot] = float32(math.NaN())
	case "inf":
		g.Weights[slot] = float32(math.Inf(1 - 2*rng.IntN(2)))
	}
	return g
}

// TestCheckCSROnMatchesSerial: on compact and holey CSRs, sorted or
// not, each clean or with one injected fault — non-monotone offsets, a
// count overflowing its slot, an out-of-range target, a NaN or an
// infinite weight, an asymmetry beyond 1e-3, a missing mirror arc —
// ValidateOn gives the serial Validate's verdict and error text, and
// CheckCSROn the serial CheckCSR's violations, at 1, 2 and 7 threads.
// The graphs span several chunks of every pass.
func TestCheckCSROnMatchesSerial(t *testing.T) {
	pool := parallel.NewPool(7)
	defer pool.Close()
	faults := []string{"none", "offsets", "count", "target", "nan", "inf", "asymmetry", "missing-mirror"}
	for seed := uint64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		holey, sorted := seed%2 == 1, seed%4 >= 2
		fault := faults[int(seed/4)%len(faults)]
		if fault == "count" && !holey {
			fault = "none"
		}
		g := faultyCSR(rng, 600+rng.IntN(2400), holey, sorted, fault)
		label := fmt.Sprintf("seed %d (holey %v, sorted %v, fault %s)", seed, holey, sorted, fault)
		want := serialValidate(g)
		var wantR Report
		serialCheckCSR(&wantR, g)
		if fault != "none" && wantR.Ok() {
			t.Fatalf("%s: the serial check missed the fault", label)
		}
		for _, threads := range []int{1, 2, 7} {
			got := g.ValidateOn(pool, threads)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, %d threads: ValidateOn = %v, serial Validate = %v", label, threads, got, want)
			}
			var r Report
			CheckCSROn(&r, pool, g, threads)
			if r.Checks != wantR.Checks || !slices.Equal(r.Violations, wantR.Violations) {
				t.Fatalf("%s, %d threads: CheckCSROn = %v, serial CheckCSR = %v", label, threads, r.Violations, wantR.Violations)
			}
		}
	}
}
