package graph

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"gveleiden/internal/parallel"
)

// referenceAsymmetry is the map-based symmetry pass Validate used
// before the counting-sort transpose, kept as the reference: it nets
// every pair's forward arc weights against its backward ones in the
// same order and returns each pair {a,b}, a<b, whose net exceeds 1e-3.
func referenceAsymmetry(g *CSR) map[[2]uint32]float64 {
	acc := map[[2]uint32]float64{}
	for i := 0; i < g.NumVertices(); i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			switch {
			case e > uint32(i):
				acc[[2]uint32{uint32(i), e}] += float64(ws[k])
			case e < uint32(i):
				acc[[2]uint32{e, uint32(i)}] -= float64(ws[k])
			}
		}
	}
	bad := map[[2]uint32]float64{}
	for p, v := range acc {
		if v > 1e-3 || v < -1e-3 {
			bad[p] = v
		}
	}
	return bad
}

// arcList is a CSR under construction: the arcs of each vertex in the
// order they will be stored.
type arcList [][]Edge

// randomArcs returns the arcs of a random symmetric graph with
// self-loops. Weights are multiples of 1/4, so splitting one into
// quarters and summing them back is exact.
func randomArcs(rng *rand.Rand, n int) arcList {
	adj := make(arcList, n)
	for k := 0; k < 3*n; k++ {
		u, v := uint32(rng.IntN(n)), uint32(rng.IntN(n))
		w := float32(1+rng.IntN(32)) / 4
		adj[u] = append(adj[u], Edge{U: u, V: v, W: w})
		if u != v {
			adj[v] = append(adj[v], Edge{U: v, V: u, W: w})
		}
	}
	return adj
}

// csr lays the arcs out compactly, or holey with a random gap after
// each vertex's slot when holey is set.
func (adj arcList) csr(rng *rand.Rand, holey bool) *CSR {
	n := len(adj)
	g := &CSR{Offsets: make([]uint32, n+1)}
	if holey {
		g.Counts = make([]uint32, n)
	}
	for i, arcs := range adj {
		for _, a := range arcs {
			g.Edges = append(g.Edges, a.V)
			g.Weights = append(g.Weights, a.W)
		}
		if holey {
			g.Counts[i] = uint32(len(arcs))
			for gap := rng.IntN(3); gap > 0; gap-- {
				g.Edges = append(g.Edges, uint32(rng.IntN(n)))
				g.Weights = append(g.Weights, -1)
			}
		}
		g.Offsets[i+1] = uint32(len(g.Edges))
	}
	return g
}

// TestSymmetryMatchesMapReference is the differential test of the
// linear symmetry pass against the map pass it replaced, over sorted,
// unsorted, duplicate-arc and holey-then-compacted CSRs with
// self-loops, under perturbations inside (0.5e-3) and outside (2e-3)
// the tolerance. Both passes sum each pair in the same order, so they
// must agree on validity, and the error must name the smallest
// violating pair with the reference's net, on every call — serially
// and on a pool at 1, 2 and 7 threads, where a holey CSR is also
// checked as it is, through its rows. Seeds from 200 on draw graphs
// large enough to span several chunks of every pass.
func TestSymmetryMatchesMapReference(t *testing.T) {
	pool := parallel.NewPool(7)
	defer pool.Close()
	shapes := []string{"sorted", "unsorted", "duplicate", "holey"}
	for seed := uint64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		shape := shapes[seed%uint64(len(shapes))]
		n := 5 + rng.IntN(60)
		if seed >= 200 {
			n = 600 + rng.IntN(2000)
		}
		adj := randomArcs(rng, n)
		switch shape {
		case "sorted":
			adj = arcsOf(FromEdges(len(adj), upperArcs(adj)))
		case "unsorted", "holey":
			for _, arcs := range adj {
				rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
			}
		case "duplicate":
			for i := range adj {
				for k, m := 0, len(adj[i]); k < m; k++ {
					if rng.IntN(3) == 0 {
						quarter := adj[i][k]
						quarter.W /= 4
						adj[i][k].W -= quarter.W
						adj[i] = append(adj[i], quarter)
					}
				}
			}
		}
		// Perturb one non-loop arc by ±0.5e-3 (inside the tolerance), or
		// up to three by ±2e-3 (outside it) or by removing them.
		kind, count, sign := rng.IntN(4), 1, float32(1-2*rng.IntN(2))
		if kind >= 2 {
			count += rng.IntN(3)
		}
		for p := 0; p < count && kind > 0; {
			i := rng.IntN(len(adj))
			if len(adj[i]) == 0 {
				continue
			}
			k := rng.IntN(len(adj[i]))
			if adj[i][k].V == uint32(i) {
				continue
			}
			switch kind {
			case 1:
				adj[i][k].W += sign * 0.5e-3
			case 2:
				adj[i][k].W += sign * 2e-3
			case 3:
				adj[i] = append(adj[i][:k], adj[i][k+1:]...)
			}
			p++
		}
		h := adj.csr(rng, shape == "holey")
		g := h.Compact()
		want := referenceAsymmetry(g)
		if (kind == 1 && len(want) != 0) || (kind >= 2 && count == 1 && len(want) != 1) {
			t.Fatalf("seed %d: kind %d perturbation gives reference violations %v", seed, kind, want)
		}
		first := g.Validate()
		if (first == nil) != (len(want) == 0) {
			t.Fatalf("seed %d (%s, kind %d): Validate = %v, reference violations %v", seed, shape, kind, first, want)
		}
		for _, threads := range []int{1, 2, 7} {
			if err := g.ValidateOn(pool, threads); fmt.Sprint(err) != fmt.Sprint(first) {
				t.Fatalf("seed %d (%s) %d threads: ValidateOn = %v, Validate = %v", seed, shape, threads, err, first)
			}
			if err := h.SymmetryOn(pool, threads); fmt.Sprint(err) != fmt.Sprint(first) {
				t.Fatalf("seed %d (%s) %d threads: SymmetryOn = %v, Validate = %v", seed, shape, threads, err, first)
			}
		}
		if first == nil {
			continue
		}
		var smallest [2]uint32
		found := false
		for p := range want {
			if !found || p[0] < smallest[0] || (p[0] == smallest[0] && p[1] < smallest[1]) {
				smallest, found = p, true
			}
		}
		msg := fmt.Sprintf("graph: asymmetric arcs between %d and %d (net %g)", smallest[0], smallest[1], want[smallest])
		for run := 0; run < 3; run++ {
			if err := g.Validate(); err == nil || err.Error() != msg {
				t.Fatalf("seed %d (%s) run %d: Validate = %v, want %q", seed, shape, run, err, msg)
			}
		}
	}
}

// upperArcs returns each undirected edge of adj once.
func upperArcs(adj arcList) []Edge {
	var out []Edge
	for _, arcs := range adj {
		for _, a := range arcs {
			if a.U <= a.V {
				out = append(out, a)
			}
		}
	}
	return out
}

// arcsOf returns g's arcs in storage order.
func arcsOf(g *CSR) arcList {
	adj := make(arcList, g.NumVertices())
	for i := range adj {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			adj[i] = append(adj[i], Edge{U: uint32(i), V: e, W: ws[k]})
		}
	}
	return adj
}
