package core

import (
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/quality"
)

func TestFinalRefineNeverLosesQuality(t *testing.T) {
	// Deterministic mode: the coarsening passes are a pure function of
	// the graph and options, so the base run and the refined run start
	// from the same flat partition and the cross-run comparison is
	// sound. (Asynchronous mode's pass-level nondeterminism would make
	// it a comparison of two different partitions.)
	for name, g := range corpusGraphs() {
		det := testOpts(2)
		det.Deterministic = true
		base := Leiden(g, det)
		opt := det
		opt.FinalRefine = true
		refined := Leiden(g, opt)
		if refined.Modularity < base.Modularity-1e-9 {
			t.Errorf("%s: final refine lost quality: %.6f → %.6f",
				name, base.Modularity, refined.Modularity)
		}
		if err := quality.ValidatePartition(g, refined.Membership); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFinalRefineImprovesCoarsePartitions(t *testing.T) {
	// Cap at one pass so the flat partition is visibly suboptimal; the
	// final sweep must then make strict progress.
	g, _ := gen.SocialNetwork(2500, 14, 12, 0.35, 91)
	// Deterministic mode pins the 1-pass partition, so both runs refine
	// the same baseline and the strict-progress assertion is sound.
	coarse := testOpts(2)
	coarse.Deterministic = true
	coarse.MaxPasses = 1
	base := Leiden(g, coarse)
	withRef := coarse
	withRef.FinalRefine = true
	refined := Leiden(g, withRef)
	if refined.Modularity <= base.Modularity {
		t.Fatalf("final refine made no progress on a 1-pass partition: %.4f vs %.4f",
			refined.Modularity, base.Modularity)
	}
}

func TestFinalRefineRecordsExtraPass(t *testing.T) {
	g, _ := gen.WebGraph(1500, 10, 93)
	opt := testOpts(2)
	opt.FinalRefine = true
	res := Leiden(g, opt)
	last := res.Stats.Passes[len(res.Stats.Passes)-1]
	if last.Vertices != g.NumVertices() {
		t.Fatal("final refinement pass must cover the original graph")
	}
	if last.Refine != 0 || last.Aggregate != 0 {
		t.Fatal("final refinement pass must be local-moving only")
	}
}

// TestFinalRefineRecordsColoring: a deterministic final refinement
// colors the input graph before its sweeps, and the final-refine pass
// reports that time as Color, as every other pass does, on Leiden and
// on Louvain.
func TestFinalRefineRecordsColoring(t *testing.T) {
	g, _ := gen.WebGraph(1500, 10, 93)
	opt := detOpts(2)
	opt.FinalRefine = true
	for name, res := range map[string]*Result{"leiden": Leiden(g, opt), "louvain": Louvain(g, opt)} {
		last := res.Stats.Passes[len(res.Stats.Passes)-1]
		if last.Color <= 0 {
			t.Errorf("%s: final-refine pass Color = %v, want > 0 (Other %v)", name, last.Color, last.Other)
		}
	}
}

func TestFinalRefineDeterministic(t *testing.T) {
	g, _ := gen.WebGraph(1800, 10, 97)
	opt := detOpts(1)
	opt.FinalRefine = true
	a := Leiden(g, opt)
	opt.Threads = 4
	b := Leiden(g, opt)
	for v := range a.Membership {
		if a.Membership[v] != b.Membership[v] {
			t.Fatal("deterministic final refine differs across thread counts")
		}
	}
}

func TestFinalRefineOnTrivialInputs(t *testing.T) {
	opt := testOpts(2)
	opt.FinalRefine = true
	if res := Leiden(gen.Path(0), opt); res.NumCommunities != 0 {
		t.Fatal("empty graph")
	}
	if res := Leiden(gen.Path(1), opt); res.NumCommunities != 1 {
		t.Fatal("singleton")
	}
	edgeless := gen.Star(1) // one vertex, no edges
	if res := Leiden(edgeless, opt); res.NumCommunities != 1 {
		t.Fatal("edgeless")
	}
}
