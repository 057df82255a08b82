package core

import (
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// ringOfCliques builds the classic resolution-limit instance: k cliques
// of size s arranged in a ring, adjacent cliques joined by one edge.
// For large k, modularity maximization merges adjacent cliques (the
// resolution limit); CPM with a suitable γ keeps them separate.
func ringOfCliques(k, s int) (*graph.CSR, []uint32) {
	b := graph.NewBuilder(k * s)
	truth := make([]uint32, k*s)
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			truth[base+i] = uint32(c)
			for j := i + 1; j < s; j++ {
				b.AddEdge(uint32(base+i), uint32(base+j), 1)
			}
		}
		nextBase := ((c + 1) % k) * s
		b.AddEdge(uint32(base), uint32(nextBase), 1) // ring link
	}
	return b.Build(), truth
}

func TestCPMObjectiveValidAndConnected(t *testing.T) {
	g, _ := gen.WebGraph(1500, 12, 37)
	opt := testOpts(4)
	opt.Objective = ObjectiveCPM
	opt.Resolution = 0.02
	res := Leiden(g, opt)
	if err := quality.ValidatePartition(g, res.Membership); err != nil {
		t.Fatal(err)
	}
	if ds := quality.CountDisconnected(g, res.Membership, 4); ds.Disconnected != 0 {
		t.Fatalf("%d disconnected communities under CPM", ds.Disconnected)
	}
	if res.Quality != quality.CPM(g, res.Membership, opt.Resolution) {
		t.Fatal("Result.Quality disagrees with quality.CPM")
	}
}

// TestCPMEscapesResolutionLimit is the paper's §2 point: "methods
// relying on modularity maximization are known to suffer from [the]
// resolution limit problem … This can be overcome by using an
// alternative quality function, such as the Constant Potts Model."
func TestCPMEscapesResolutionLimit(t *testing.T) {
	// 40 cliques of size 5: modularity's merge threshold for clique
	// pairs is k ≈ √(2m) ≈ √(2·440) ≈ 30 < 40, so modularity merges
	// neighbouring cliques; CPM at γ=0.3 must keep all 40 separate.
	g, truth := ringOfCliques(40, 5)

	mod := testOpts(2)
	mod.Objective = ObjectiveModularity
	resMod := Leiden(g, mod)

	cpm := testOpts(2)
	cpm.Objective = ObjectiveCPM
	cpm.Resolution = 0.3
	resCPM := Leiden(g, cpm)

	if resMod.NumCommunities >= 40 {
		t.Fatalf("modularity found %d communities — resolution limit did not bite; test instance wrong", resMod.NumCommunities)
	}
	if resCPM.NumCommunities != 40 {
		t.Fatalf("CPM found %d communities, want all 40 cliques", resCPM.NumCommunities)
	}
	if nmi := quality.NMI(resCPM.Membership, truth); nmi < 0.999 {
		t.Fatalf("CPM communities differ from the cliques: NMI %.3f", nmi)
	}
}

func TestCPMGammaControlsDensityThreshold(t *testing.T) {
	g, _ := ringOfCliques(20, 6)
	// γ above the clique density (1.0 for a clique) dissolves
	// everything into singletons; γ near zero merges aggressively.
	hi := testOpts(2)
	hi.Objective = ObjectiveCPM
	hi.Resolution = 1.5
	resHi := Leiden(g, hi)
	if resHi.NumCommunities != g.NumVertices() {
		t.Fatalf("γ>1 must leave singletons, got %d communities", resHi.NumCommunities)
	}
	lo := testOpts(2)
	lo.Objective = ObjectiveCPM
	lo.Resolution = 0.001
	resLo := Leiden(g, lo)
	if resLo.NumCommunities >= 20 {
		t.Fatalf("tiny γ must merge cliques, got %d communities", resLo.NumCommunities)
	}
}

// TestCPMDeltaMatchesRecompute validates the ΔH formula in ws.delta the
// same way Equation 2 is validated: a single move changes the CPM value
// by exactly the predicted amount.
func TestCPMDeltaMatchesRecompute(t *testing.T) {
	g, _ := gen.PlantedPartition(gen.PlantedConfig{
		N: 150, Communities: 5, MinSize: 10, MaxSize: 60,
		AvgDegree: 8, Mixing: 0.3, Seed: 8,
	})
	n := g.NumVertices()
	opt := testOpts(1)
	opt.Objective = ObjectiveCPM
	opt.Resolution = 0.05
	ws := newWorkspace(g, opt.normalize())
	ws.vertexWeights(g, ws.k[:n])
	var twoM float64
	for i := 0; i < n; i++ {
		twoM += ws.k[i]
	}
	ws.m = twoM / 2
	for i := 0; i < n; i++ {
		ws.sizes.vsize[i] = 1
	}
	// Random-ish partition into 6 blocks.
	member := make([]uint32, n)
	for i := range member {
		member[i] = uint32((i * 7) % 6)
	}
	sigma := make([]float64, n)
	count := make([]float64, n)
	for i := 0; i < n; i++ {
		sigma[member[i]] += ws.k[i]
		count[member[i]]++
	}
	sync := func() {
		for c := 0; c < n; c++ {
			ws.sigma.Set(c, sigma[c])
			ws.sizes.csize.Set(c, count[c])
		}
	}
	for trial := 0; trial < 200; trial++ {
		u := uint32((trial * 13) % n)
		es, ws2 := g.Neighbors(u)
		if len(es) == 0 {
			continue
		}
		target := member[es[trial%len(es)]]
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
				kic += float64(ws2[idx])
			case d:
				kid += float64(ws2[idx])
			}
		}
		sync()
		predicted := ws.delta(kic, kid, ws.k[u], sigma[target], sigma[d], 1, count[target], count[d])
		before := quality.CPM(g, member, opt.Resolution)
		member[u] = target
		after := quality.CPM(g, member, opt.Resolution)
		actual := after - before
		if diff := actual - predicted; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: ΔH predicted %v, actual %v", trial, predicted, actual)
		}
		sigma[d] -= ws.k[u]
		sigma[target] += ws.k[u]
		count[d]--
		count[target]++
	}
}

func TestObjectiveString(t *testing.T) {
	if ObjectiveModularity.String() != "modularity" ||
		ObjectiveCPM.String() != "cpm" ||
		Objective(9).String() != "unknown" {
		t.Fatal("objective strings wrong")
	}
}

func TestDisablePruningSameQuality(t *testing.T) {
	g, _ := gen.WebGraph(1500, 10, 53)
	withP := Leiden(g, testOpts(2))
	opt := testOpts(2)
	opt.DisablePruning = true
	withoutP := Leiden(g, opt)
	if err := quality.ValidatePartition(g, withoutP.Membership); err != nil {
		t.Fatal(err)
	}
	if withoutP.Modularity < withP.Modularity-0.02 {
		t.Fatalf("pruning ablation lost quality: %.4f vs %.4f",
			withoutP.Modularity, withP.Modularity)
	}
}
