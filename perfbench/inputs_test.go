package main

import (
	"testing"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

func smallWeb(t *testing.T, seed uint64) *graph.CSR {
	t.Helper()
	p := parallel.NewPool(2)
	defer p.Close()
	g, err := generate("web", 8000, seed, p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The delta sequence must be valid against the graph as it evolves: the
// whole sequence replays through graph.ApplyDelta without a rejected
// batch, and the counts it predicts are the replayed graph's.
func TestDeltaSequenceReplaysThroughApplyDelta(t *testing.T) {
	g := smallWeb(t, 3)
	bs, err := deltaSequence(g, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bs {
		if len(b.ins) != batchIns || len(b.del) != batchDel {
			t.Fatalf("batch %d: %d insertions, %d deletions", i, len(b.ins), len(b.del))
		}
		next, err := graph.ApplyDelta(g, b.ins, b.del)
		if err != nil {
			t.Fatalf("batch %d rejected: %v", i, err)
		}
		g = next
		if g.NumVertices() != b.vertices || g.NumUndirectedEdges() != b.edges {
			t.Fatalf("batch %d: graph has %d vertices / %d edges, sequence predicts %d / %d",
				i, g.NumVertices(), g.NumUndirectedEdges(), b.vertices, b.edges)
		}
	}
}

func TestFingerprintsStableAcrossGenerations(t *testing.T) {
	g1, g2, g3 := smallWeb(t, 5), smallWeb(t, 5), smallWeb(t, 6)
	if graphFingerprint(g1) != graphFingerprint(g2) {
		t.Error("two generations from one seed hash differently")
	}
	if graphFingerprint(g1) == graphFingerprint(g3) {
		t.Error("different seeds hash the same")
	}
	d1, err := deltaSequence(g1, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := deltaSequence(g2, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := deltaSequence(g1, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if deltaFingerprint(d1) != deltaFingerprint(d2) {
		t.Error("two delta sequences from one seed hash differently")
	}
	if deltaFingerprint(d1) == deltaFingerprint(d3) {
		t.Error("delta sequences from different seeds hash the same")
	}
}

func TestCheckFingerprints(t *testing.T) {
	for name := range workloads {
		if len(recorded(t).Workloads[name]) == 0 {
			t.Errorf("fingerprints.json records nothing for %s", name)
		}
	}
	rec := recorded(t)
	good := rec.Workloads["serve-swap"]
	if err := checkFingerprints("serve-swap", rec.Seed, good); err != nil {
		t.Errorf("recorded fingerprints rejected: %v", err)
	}
	bad := map[string]string{"graph": "0000000000000000"}
	if err := checkFingerprints("serve-swap", rec.Seed, bad); err == nil {
		t.Error("a changed graph passed the fingerprint check")
	}
	if err := checkFingerprints("serve-swap", rec.Seed+1, bad); err != nil {
		t.Errorf("an unrecorded seed was checked: %v", err)
	}
}
