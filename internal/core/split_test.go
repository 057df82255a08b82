package core

import (
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/prng"
	"gveleiden/internal/quality"
)

// twoTriangles builds two disjoint triangles {0,1,2} and {3,4,5}.
func twoTriangles() *graph.CSR {
	b := graph.NewBuilder(6)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1], 1)
	}
	return b.Build()
}

// splitConnectedLabels is the workspace's connectivity split on g at
// the given thread count.
func splitConnectedLabels(g *graph.CSR, labels []uint32, threads int) int {
	return newWorkspace(g, testOpts(threads).normalize()).splitConnected(g, labels)
}

// splitSerial is the reference connectivity split: one sequential
// search per component in ascending vertex order, so each component is
// named by its first (smallest) vertex, and labels change only when
// some label holds more than one component.
func splitSerial(g *graph.CSR, labels []uint32) int {
	n := g.NumVertices()
	const unvisited = ^uint32(0)
	out := make([]uint32, n)
	for i := range out {
		out[i] = unvisited
	}
	kept := make(map[uint32]bool)
	splits := 0
	for s := 0; s < n; s++ {
		if out[s] != unvisited {
			continue
		}
		l := labels[s]
		if kept[l] {
			splits++
		}
		kept[l] = true
		out[s] = uint32(s)
		stack := []uint32{uint32(s)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			es, _ := g.Neighbors(u)
			for _, e := range es {
				if out[e] == unvisited && labels[e] == l {
					out[e] = uint32(s)
					stack = append(stack, e)
				}
			}
		}
	}
	if splits > 0 {
		copy(labels, out)
	}
	return splits
}

func TestSplitConnectedLabelsSplitsDisconnected(t *testing.T) {
	g := twoTriangles()
	labels := []uint32{0, 0, 0, 0, 0, 0} // one community spanning both triangles
	before := quality.Modularity(g, labels)
	splits := splitConnectedLabels(g, labels, 2)
	if splits != 1 {
		t.Fatalf("splits = %d, want 1", splits)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("first triangle not kept together: %v", labels)
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Errorf("second triangle not kept together: %v", labels)
	}
	if labels[0] == labels[3] {
		t.Errorf("triangles not separated: %v", labels)
	}
	after := quality.Modularity(g, labels)
	if after <= before {
		t.Errorf("splitting decreased modularity: %g -> %g", before, after)
	}
	if ds := quality.CountDisconnected(g, labels, 2); ds.Disconnected != 0 {
		t.Errorf("still %d disconnected communities", ds.Disconnected)
	}
}

func TestSplitConnectedLabelsNoOpWhenConnected(t *testing.T) {
	g := twoTriangles()
	labels := []uint32{5, 5, 5, 2, 2, 2}
	want := append([]uint32(nil), labels...)
	if splits := splitConnectedLabels(g, labels, 2); splits != 0 {
		t.Fatalf("splits = %d, want 0", splits)
	}
	for i := range labels {
		if labels[i] != want[i] {
			t.Fatalf("labels modified on no-op: %v", labels)
		}
	}
}

// TestSplitConnectedMatchesSerial holds the pooled split to the serial
// reference on random labelings of generated graphs, coarse (most
// labels disconnected) and fine, at one, two and seven threads: the
// same labels and the same split count.
func TestSplitConnectedMatchesSerial(t *testing.T) {
	web, _ := gen.WebGraph(3000, 8, 5)
	road, _ := gen.RoadNetwork(3000, 6)
	for _, gc := range []struct {
		name string
		g    *graph.CSR
	}{{"web", web}, {"road", road}} {
		n := gc.g.NumVertices()
		for _, k := range []int{3, 40, n / 4} {
			rng := prng.NewXorshift32(uint64(k))
			labels := make([]uint32, n)
			for v := range labels {
				labels[v] = rng.Uintn(uint32(k)) * uint32(n/k)
			}
			want := append([]uint32(nil), labels...)
			wantSplits := splitSerial(gc.g, want)
			for _, threads := range []int{1, 2, 7} {
				got := append([]uint32(nil), labels...)
				splits := splitConnectedLabels(gc.g, got, threads)
				if splits != wantSplits {
					t.Fatalf("%s k=%d t=%d: %d splits, want %d", gc.name, k, threads, splits, wantSplits)
				}
				for v := range got {
					if got[v] != want[v] {
						t.Fatalf("%s k=%d t=%d: vertex %d labelled %d, want %d", gc.name, k, threads, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestLeidenNoDisconnectedVariantSweep is the regression test for the
// connectivity bug this sweep originally surfaced: deterministic runs
// with the medium/heavy variants converged with the last pass's move
// partition holding an internally-disconnected community (e.g. the
// social generator at seed 3), violating the paper's headline guarantee.
// The exit paths now split such communities into their components.
func TestLeidenNoDisconnectedVariantSweep(t *testing.T) {
	type mk struct {
		name string
		f    func(seed uint64) *graph.CSR
	}
	gens := []mk{
		{"social", func(s uint64) *graph.CSR { g, _ := gen.SocialNetwork(4000, 10, 32, 0.3, s); return g }},
		{"web", func(s uint64) *graph.CSR { g, _ := gen.WebGraph(4000, 12, s); return g }},
		{"er", func(s uint64) *graph.CSR { return gen.ErdosRenyi(3000, 12000, s) }},
	}
	seeds := []uint64{1, 2, 3, 4}
	if testing.Short() {
		gens = gens[:1]
		seeds = []uint64{3}
	}
	for _, m := range gens {
		for _, seed := range seeds {
			g := m.f(seed)
			for _, variant := range []Variant{VariantLight, VariantMedium, VariantHeavy} {
				for _, det := range []bool{false, true} {
					opt := DefaultOptions()
					opt.Variant = variant
					opt.Deterministic = det
					opt.Threads = 4
					res := Leiden(g, opt)
					ds := quality.CountDisconnected(g, res.Membership, 4)
					if ds.Disconnected > 0 {
						t.Errorf("%s seed=%d variant=%v det=%v: %d/%d disconnected",
							m.name, seed, variant, det, ds.Disconnected, ds.Communities)
					}
				}
			}
		}
	}
}

// TestLeidenFinalRefineStaysConnected covers the second entry point of
// the same bug: final-refinement sweeps move individual vertices and
// can disconnect a community after the passes already guaranteed
// connectivity.
func TestLeidenFinalRefineStaysConnected(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g, _ := gen.SocialNetwork(3000, 10, 32, 0.3, seed)
		opt := DefaultOptions()
		opt.FinalRefine = true
		opt.Threads = 4
		res := Leiden(g, opt)
		if ds := quality.CountDisconnected(g, res.Membership, 4); ds.Disconnected > 0 {
			t.Errorf("seed=%d: %d/%d disconnected after final refine",
				seed, ds.Disconnected, ds.Communities)
		}
	}
}

// TestLeidenHierarchyHonorsFinalRefine is the regression test for
// LeidenHierarchy silently ignoring Options.FinalRefine: its result is
// documented as identical to Leiden's, so with FinalRefine set the two
// must still agree.
func TestLeidenHierarchyHonorsFinalRefine(t *testing.T) {
	g, _ := gen.SocialNetwork(2000, 10, 32, 0.3, 7)
	opt := DefaultOptions()
	opt.FinalRefine = true
	opt.Deterministic = true // pure function of graph+options → comparable
	opt.Threads = 4
	plain := Leiden(g, opt)
	hier, _ := LeidenHierarchy(g, opt)
	if !quality.SamePartition(plain.Membership, hier.Membership) {
		t.Errorf("LeidenHierarchy result differs from Leiden with FinalRefine set")
	}
	if plain.Modularity != hier.Modularity {
		t.Errorf("modularity differs: %g vs %g", plain.Modularity, hier.Modularity)
	}
}
