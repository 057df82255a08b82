package quality

import (
	"math"
	"testing"
	"testing/quick"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/prng"
)

// trianglePair: two triangles joined by one edge — the classic
// modularity example with a hand-computable optimum.
func trianglePair() *graph.CSR {
	return graph.FromAdjacency([][]uint32{
		{1, 2}, {0, 2}, {0, 1, 3}, {2, 4, 5}, {3, 5}, {3, 4},
	})
}

func TestModularityHandComputed(t *testing.T) {
	g := trianglePair()
	// Partition into the two triangles: m=7.
	// σ_c (arc weight inside each triangle) = 6, Σ_c = 7.
	// Q = 2·(6/14 − (7/14)²) = 2·(3/7 − 1/4) = 5/14.
	member := []uint32{0, 0, 0, 1, 1, 1}
	want := 5.0 / 14.0
	if got := Modularity(g, member); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Q = %v, want %v", got, want)
	}
	// All-in-one community: Q = 1 − 1 = 0.
	if got := Modularity(g, []uint32{0, 0, 0, 0, 0, 0}); math.Abs(got) > 1e-12 {
		t.Fatalf("single-community Q = %v, want 0", got)
	}
	// Singletons: Q = −Σ (K_i/2m)² = −(4·(2/14)² + 2·(3/14)²) = −34/196.
	singles := []uint32{0, 1, 2, 3, 4, 5}
	want = -34.0 / 196.0
	if got := Modularity(g, singles); math.Abs(got-want) > 1e-12 {
		t.Fatalf("singleton Q = %v, want %v", got, want)
	}
}

func TestModularityEmptyAndEdgeless(t *testing.T) {
	if got := Modularity(graph.FromAdjacency(nil), nil); got != 0 {
		t.Fatalf("empty graph Q = %v", got)
	}
	g := graph.FromAdjacency([][]uint32{{}, {}})
	if got := Modularity(g, []uint32{0, 1}); got != 0 {
		t.Fatalf("edgeless Q = %v", got)
	}
}

func TestModularityWithSelfLoop(t *testing.T) {
	// One vertex with a self-loop of weight 1, one isolated edge pair.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 0, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	// 2m = 1 + 2 = 3. Partition {0},{1,2}:
	// c0: σ=1, Σ=1 → 1/3 − 1/9 ; c1: σ=2, Σ=2 → 2/3 − 4/9.
	want := (1.0/3 - 1.0/9) + (2.0/3 - 4.0/9)
	if got := Modularity(g, []uint32{0, 1, 1}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Q = %v, want %v", got, want)
	}
}

func TestModularityResolutionMonotone(t *testing.T) {
	g := trianglePair()
	member := []uint32{0, 0, 0, 1, 1, 1}
	q1 := ModularityResolution(g, member, 1)
	q2 := ModularityResolution(g, member, 2)
	if q2 >= q1 {
		t.Fatalf("higher γ must penalize more: γ1=%v γ2=%v", q1, q2)
	}
}

// TestDeltaModularityMatchesRecompute is the central property test of
// Equation 2: applying a single vertex move changes Q by exactly the
// predicted ΔQ.
func TestDeltaModularityMatchesRecompute(t *testing.T) {
	g, _ := gen.PlantedPartition(gen.PlantedConfig{
		N: 200, Communities: 6, MinSize: 10, MaxSize: 80,
		AvgDegree: 8, Mixing: 0.3, Seed: 5,
	})
	n := g.NumVertices()
	var twoM float64
	k := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = g.VertexWeight(uint32(i))
		twoM += k[i]
	}
	m := twoM / 2
	rng := prng.NewXorshift32(77)

	// Random initial partition into 8 blocks.
	member := make([]uint32, n)
	for i := range member {
		member[i] = rng.Uintn(8)
	}
	sigma := make([]float64, n)
	for i := 0; i < n; i++ {
		sigma[member[i]] += k[i]
	}
	for trial := 0; trial < 300; trial++ {
		u := rng.Uintn(uint32(n))
		es, ws := g.Neighbors(u)
		if len(es) == 0 {
			continue
		}
		target := member[es[rng.Uintn(uint32(len(es)))]]
		d := member[u]
		if target == d {
			continue
		}
		var kic, kid float64
		for idx, e := range es {
			if e == u {
				continue
			}
			switch member[e] {
			case target:
				kic += float64(ws[idx])
			case d:
				kid += float64(ws[idx])
			}
		}
		predicted := DeltaModularity(kic, kid, k[u], sigma[target], sigma[d], m)
		before := Modularity(g, member)
		member[u] = target
		after := Modularity(g, member)
		if math.Abs((after-before)-predicted) > 1e-9 {
			t.Fatalf("trial %d: ΔQ predicted %v, actual %v", trial, predicted, after-before)
		}
		sigma[d] -= k[u]
		sigma[target] += k[u]
	}
}

func TestCPM(t *testing.T) {
	g := trianglePair()
	two := []uint32{0, 0, 0, 1, 1, 1}
	one := []uint32{0, 0, 0, 0, 0, 0}
	// At γ=1 the two-triangle split beats the single community: CPM
	// penalizes n_c(n_c−1)/2 pairs.
	if CPM(g, two, 1) <= CPM(g, one, 1) {
		t.Fatal("CPM must prefer the triangle split at γ=1")
	}
	// At γ=0 internal edges dominate: single community wins (7 ≥ 6).
	if CPM(g, one, 0) < CPM(g, two, 0) {
		t.Fatal("CPM at γ=0 must prefer the single community")
	}
	if CPM(graph.FromAdjacency(nil), nil, 1) != 0 {
		t.Fatal("empty CPM must be 0")
	}
}

func TestValidatePartition(t *testing.T) {
	g := trianglePair()
	if err := ValidatePartition(g, []uint32{0, 0, 0, 1, 1, 1}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if err := ValidatePartition(g, []uint32{0, 0}); err == nil {
		t.Fatal("short membership accepted")
	}
	if err := ValidatePartition(g, []uint32{0, 0, 0, 1, 1, 99}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestCountCommunitiesAndSizes(t *testing.T) {
	m := []uint32{3, 3, 1, 7, 1}
	if CountCommunities(m) != 3 {
		t.Fatal("count wrong")
	}
	sizes := CommunitySizes(m)
	if sizes[3] != 2 || sizes[1] != 2 || sizes[7] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestIsRefinementOf(t *testing.T) {
	coarse := []uint32{0, 0, 0, 1, 1}
	fine := []uint32{0, 0, 2, 3, 3}
	if !IsRefinementOf(fine, coarse) {
		t.Fatal("valid refinement rejected")
	}
	bad := []uint32{0, 0, 1, 1, 1} // fine community 1 spans coarse 0 and 1
	if IsRefinementOf(bad, coarse) {
		t.Fatal("crossing partition accepted as refinement")
	}
	if IsRefinementOf([]uint32{0}, coarse) {
		t.Fatal("length mismatch accepted")
	}
	if !IsRefinementOf(coarse, coarse) {
		t.Fatal("partition must refine itself")
	}
}

func TestIsRefinementOfProperty(t *testing.T) {
	// Splitting any community of a random partition yields a refinement.
	err := quick.Check(func(labels []uint8, splitAt uint8) bool {
		if len(labels) == 0 {
			return true
		}
		coarse := make([]uint32, len(labels))
		fine := make([]uint32, len(labels))
		for i, l := range labels {
			coarse[i] = uint32(l % 5)
			fine[i] = coarse[i]
			if l%2 == uint8(i%2) { // split deterministically
				fine[i] = coarse[i] + 5
			}
		}
		return IsRefinementOf(fine, coarse)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCountDisconnected(t *testing.T) {
	// Path 0-1-2-3-4; community {0,1} connected, {2,4} disconnected
	// (vertex 3 in its own community splits them).
	g := graph.FromAdjacency([][]uint32{{1}, {0, 2}, {1, 3}, {2, 4}, {3}})
	member := []uint32{0, 0, 1, 2, 1}
	ds := CountDisconnected(g, member, 2)
	if ds.Communities != 3 {
		t.Fatalf("communities = %d", ds.Communities)
	}
	if ds.Disconnected != 1 {
		t.Fatalf("disconnected = %d, want 1", ds.Disconnected)
	}
	if math.Abs(ds.Fraction-1.0/3.0) > 1e-12 {
		t.Fatalf("fraction = %v", ds.Fraction)
	}
	// All singletons: everything connected.
	ds = CountDisconnected(g, []uint32{0, 1, 2, 3, 4}, 2)
	if ds.Disconnected != 0 {
		t.Fatal("singletons cannot be disconnected")
	}
	// Empty graph.
	ds = CountDisconnected(graph.FromAdjacency(nil), nil, 2)
	if ds.Communities != 0 || ds.Disconnected != 0 {
		t.Fatal("empty graph stats wrong")
	}
}

func TestCountDisconnectedManyCommunities(t *testing.T) {
	// 50 disjoint edges, all in one community per pair → all connected;
	// then merge pairs across components → all disconnected.
	b := graph.NewBuilder(100)
	for i := 0; i < 100; i += 2 {
		b.AddEdge(uint32(i), uint32(i+1), 1)
	}
	g := b.Build()
	member := make([]uint32, 100)
	for i := range member {
		member[i] = uint32(i / 2)
	}
	if ds := CountDisconnected(g, member, 4); ds.Disconnected != 0 {
		t.Fatalf("pairs: disconnected = %d", ds.Disconnected)
	}
	for i := range member {
		member[i] = uint32(i / 4) // each community = two disjoint edges
	}
	ds := CountDisconnected(g, member, 4)
	if ds.Disconnected != ds.Communities {
		t.Fatalf("all %d communities must be disconnected, got %d", ds.Communities, ds.Disconnected)
	}
}

// Isolated (degree-zero) vertices are legal inputs: they contribute
// nothing to any weight sum but must still be counted, validated and
// connectivity-checked without dividing by zero or panicking.
func TestMetricsOnIsolatedVertices(t *testing.T) {
	// Two triangles plus three isolated vertices (6, 7, 8).
	b := graph.NewBuilder(9)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1], 1)
	}
	g := b.Build()
	m := []uint32{0, 0, 0, 1, 1, 1, 2, 3, 4}
	if err := ValidatePartition(g, m); err != nil {
		t.Fatalf("partition with isolated singletons rejected: %v", err)
	}
	q := Modularity(g, m)
	// Isolated singletons have Σ_c = 0, so they change nothing: the
	// two-triangle partition alone scores 2·(6/12 − (6/12)²) = 0.5.
	if math.Abs(q-0.5) > 1e-12 {
		t.Fatalf("modularity with isolated vertices = %g, want 0.5", q)
	}
	h := CPM(g, m, 1)
	if math.IsNaN(h) || math.IsInf(h, 0) {
		t.Fatalf("CPM with isolated vertices = %g", h)
	}
	ds := CountDisconnected(g, m, 2)
	if ds.Disconnected != 0 || ds.Communities != 5 {
		t.Fatalf("disconnected stats = %+v, want 0 of 5", ds)
	}

	// A fully edgeless graph: every metric must stay finite.
	empty := graph.NewBuilder(4).Build()
	em := []uint32{0, 1, 2, 3}
	if q := Modularity(empty, em); q != 0 {
		t.Fatalf("modularity of edgeless graph = %g, want 0", q)
	}
	if h := CPM(empty, em, 1); math.IsNaN(h) || math.IsInf(h, 0) {
		t.Fatalf("CPM of edgeless graph = %g", h)
	}
	if ds := CountDisconnected(empty, em, 1); ds.Disconnected != 0 {
		t.Fatalf("edgeless graph reported disconnected communities: %+v", ds)
	}
}

// refModularity and refCPM are the label-map accumulations Modularity
// and CPM ran before Accumulate, kept as the bit-exact reference.
func refModularity(g *graph.CSR, membership []uint32, gamma float64) float64 {
	idx, k := refDense(g.NumVertices(), membership)
	sigma := make([]float64, k)
	total := make([]float64, k)
	var twoM float64
	for i := 0; i < g.NumVertices(); i++ {
		ci := idx[i]
		es, ws := g.Neighbors(uint32(i))
		for j, e := range es {
			w := float64(ws[j])
			twoM += w
			total[ci] += w
			if idx[e] == ci {
				sigma[ci] += w
			}
		}
	}
	if twoM == 0 {
		return 0
	}
	var q float64
	for c := range sigma {
		frac := total[c] / twoM
		q += sigma[c]/twoM - gamma*frac*frac
	}
	return q
}

func refCPM(g *graph.CSR, membership []uint32, gamma float64) float64 {
	idx, k := refDense(g.NumVertices(), membership)
	internal := make([]float64, k)
	size := make([]float64, k)
	var twoM float64
	for i := 0; i < g.NumVertices(); i++ {
		ci := idx[i]
		size[ci]++
		es, ws := g.Neighbors(uint32(i))
		for j, e := range es {
			w := float64(ws[j])
			twoM += w
			if idx[e] == ci {
				internal[ci] += w
			}
		}
	}
	if twoM == 0 {
		return 0
	}
	var h float64
	for c := range internal {
		h += internal[c]/2 - gamma*size[c]*(size[c]-1)/2
	}
	return h / (twoM / 2)
}

func refDense(n int, membership []uint32) ([]uint32, int) {
	dense := map[uint32]uint32{}
	idx := make([]uint32, n)
	for i := 0; i < n; i++ {
		d, ok := dense[membership[i]]
		if !ok {
			d = uint32(len(dense))
			dense[membership[i]] = d
		}
		idx[i] = d
	}
	return idx, len(dense)
}

// TestAccumulateMatchesMapPath checks the dense kernel bit for bit
// against the label-map reference: through the public functions on
// non-dense labels, and directly on dense labels numbered in a random
// order rather than by first occurrence.
func TestAccumulateMatchesMapPath(t *testing.T) {
	web, webTruth := gen.WebGraph(3000, 10, 4)
	road, roadTruth := gen.RoadNetwork(3000, 6)
	rng := prng.NewXorshift32(5)
	b := graph.NewBuilder(1500)
	for i := 0; i < 6000; i++ {
		b.AddEdge(rng.Uintn(1500), rng.Uintn(1500), float32(rng.Float64()*3))
	}
	weighted := b.Build()
	randomLabels := make([]uint32, 1500)
	for i := range randomLabels {
		randomLabels[i] = rng.Uintn(40)
	}
	cases := []struct {
		name   string
		g      *graph.CSR
		labels []uint32
	}{
		{"web", web, webTruth},
		{"road", road, roadTruth},
		{"weighted", weighted, randomLabels},
	}
	for _, c := range cases {
		n := c.g.NumVertices()
		// Spread the labels out so they are neither dense nor ordered.
		sparse := make([]uint32, n)
		for i, l := range c.labels[:n] {
			sparse[i] = uint32(n-1) - (l*7919)%uint32(n)
		}
		// Dense labels in a random order: first occurrence, permuted.
		first, k := refDense(n, c.labels)
		perm := make([]uint32, k)
		for i := range perm {
			perm[i] = uint32(i)
		}
		for i := k - 1; i > 0; i-- {
			j := rng.Uintn(uint32(i + 1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		permuted := make([]uint32, n)
		for i, d := range first {
			permuted[i] = perm[d]
		}
		sums := Accumulate(c.g, permuted, k)
		for _, gamma := range []float64{1, 0.4, 1.7} {
			wantQ, wantH := refModularity(c.g, c.labels, gamma), refCPM(c.g, c.labels, gamma)
			for _, got := range []struct {
				what string
				q, h float64
			}{
				{"map path", ModularityResolution(c.g, sparse, gamma), CPM(c.g, sparse, gamma)},
				{"dense kernel", sums.Modularity(gamma), sums.CPM(gamma)},
			} {
				if math.Float64bits(got.q) != math.Float64bits(wantQ) || math.Float64bits(got.h) != math.Float64bits(wantH) {
					t.Errorf("%s γ=%v %s: Q %v H %v, reference %v %v", c.name, gamma, got.what, got.q, got.h, wantQ, wantH)
				}
			}
		}
	}
}
