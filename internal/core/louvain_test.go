package core

import (
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/quality"
)

func TestLouvainValidPartition(t *testing.T) {
	for name, g := range corpusGraphs() {
		res := Louvain(g, testOpts(4))
		if err := quality.ValidatePartition(g, res.Membership); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if res.NumCommunities < 1 {
			t.Errorf("%s: no communities", name)
		}
	}
}

func TestLouvainQualityNearLeiden(t *testing.T) {
	g, _ := gen.PlantedPartition(gen.PlantedConfig{
		N: 1500, Communities: 15, MinSize: 40, MaxSize: 300,
		AvgDegree: 12, Mixing: 0.25, Seed: 6,
	})
	lou := Louvain(g, testOpts(4))
	lei := Leiden(g, testOpts(4))
	if lou.Modularity < lei.Modularity-0.05 {
		t.Fatalf("Louvain Q %.4f far below Leiden %.4f", lou.Modularity, lei.Modularity)
	}
}

func TestLouvainDeterministicSingleThread(t *testing.T) {
	g, _ := gen.WebGraph(1200, 10, 41)
	a := Louvain(g, testOpts(1))
	b := Louvain(g, testOpts(1))
	for i := range a.Membership {
		if a.Membership[i] != b.Membership[i] {
			t.Fatalf("memberships differ at %d", i)
		}
	}
}

func TestLouvainTrivialInputs(t *testing.T) {
	res := Louvain(gen.Path(1), testOpts(2))
	if res.NumCommunities != 1 {
		t.Fatalf("singleton: |Γ| = %d", res.NumCommunities)
	}
	res = Louvain(gen.Path(0), testOpts(2))
	if res.NumCommunities != 0 {
		t.Fatal("empty graph")
	}
	res = Louvain(gen.Complete(8), testOpts(2))
	if err := quality.ValidatePartition(gen.Complete(8), res.Membership); err != nil {
		t.Fatal(err)
	}
}

func TestLouvainRecordsStats(t *testing.T) {
	g, _ := gen.WebGraph(1500, 10, 43)
	res := Louvain(g, testOpts(2))
	if len(res.Stats.Passes) == 0 {
		t.Fatal("no pass stats")
	}
	for _, p := range res.Stats.Passes {
		if p.RefineMoves != 0 || p.Refine != 0 {
			t.Fatal("Louvain must not record refinement work")
		}
	}
}
