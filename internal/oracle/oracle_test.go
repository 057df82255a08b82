package oracle

import (
	"math"
	"strings"
	"testing"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
)

// twoTriangles builds two disjoint triangles (vertices 0-2 and 3-5).
func twoTriangles(t *testing.T) *graph.CSR {
	t.Helper()
	b := graph.NewBuilder(6)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1], 1)
	}
	return b.Build()
}

func TestReportErr(t *testing.T) {
	var r Report
	r.Checks = 3
	if !r.Ok() || r.Err() != nil {
		t.Fatalf("empty report must be ok")
	}
	r.addf("connectivity", "community %d split", 7)
	if r.Ok() {
		t.Fatalf("report with violation claims ok")
	}
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "connectivity: community 7 split") {
		t.Fatalf("Err misses violation detail: %v", err)
	}
}

func TestScopedPrefixesViolations(t *testing.T) {
	var r Report
	r.addf("a", "before")
	Scoped(&r, "social-1 leiden", func() {
		r.addf("b", "inside")
	})
	r.addf("c", "after")
	if got := r.Violations[0].Detail; got != "before" {
		t.Fatalf("pre-existing violation rewritten: %q", got)
	}
	if got := r.Violations[1].Detail; got != "social-1 leiden: inside" {
		t.Fatalf("scoped violation not prefixed: %q", got)
	}
	if got := r.Violations[2].Detail; got != "after" {
		t.Fatalf("later violation rewritten: %q", got)
	}
}

func TestCheckPartitionRejectsBadLabels(t *testing.T) {
	g := twoTriangles(t)

	var r Report
	CheckPartition(&r, g, []uint32{0, 0, 0, 1, 1, 1}, true)
	if !r.Ok() {
		t.Fatalf("valid dense partition flagged: %v", r.Err())
	}

	r = Report{}
	CheckPartition(&r, g, []uint32{0, 0, 0, 1, 1}, true) // short
	if r.Ok() {
		t.Fatalf("short membership not flagged")
	}

	r = Report{}
	CheckPartition(&r, g, []uint32{0, 0, 0, 2, 2, 2}, true) // label 1 unused
	if r.Ok() {
		t.Fatalf("non-dense labels not flagged")
	}
	r = Report{}
	CheckPartition(&r, g, []uint32{0, 0, 0, 2, 2, 2}, false)
	if !r.Ok() {
		t.Fatalf("sparse labels flagged with dense=false: %v", r.Err())
	}
}

func TestCheckRefinementRejectsSpanningCommunity(t *testing.T) {
	var r Report
	CheckRefinement(&r, []uint32{0, 0, 1, 1}, []uint32{0, 0, 1, 1})
	if !r.Ok() {
		t.Fatalf("identity refinement flagged: %v", r.Err())
	}
	r = Report{}
	// fine community 0 spans coarse communities 0 and 1.
	CheckRefinement(&r, []uint32{0, 0, 0, 1}, []uint32{0, 0, 1, 1})
	if r.Ok() {
		t.Fatalf("spanning refined community not flagged")
	}
}

func TestCheckConnectedRejectsSplitCommunity(t *testing.T) {
	g := twoTriangles(t)
	var r Report
	CheckConnected(&r, g, []uint32{0, 0, 0, 1, 1, 1}, 2)
	if !r.Ok() {
		t.Fatalf("connected communities flagged: %v", r.Err())
	}
	r = Report{}
	// One label over both triangles: internally disconnected.
	CheckConnected(&r, g, []uint32{0, 0, 0, 0, 0, 0}, 2)
	if r.Ok() {
		t.Fatalf("disconnected community not flagged")
	}
}

func TestCheckCSRRejectsCorruptedGraph(t *testing.T) {
	g := twoTriangles(t)
	var r Report
	CheckCSR(&r, g)
	if !r.Ok() {
		t.Fatalf("well-formed CSR flagged: %v", r.Err())
	}

	bad := twoTriangles(t)
	bad.Weights[0] = float32(math.NaN())
	r = Report{}
	CheckCSR(&r, bad)
	if r.Ok() {
		t.Fatalf("NaN arc weight not flagged")
	}

	asym := twoTriangles(t)
	asym.Edges[0] = 5 // 0→5 arc with no 5→0 reverse
	r = Report{}
	CheckCSR(&r, asym)
	if r.Ok() {
		t.Fatalf("asymmetric arc not flagged")
	}
}

func TestCheckWeightConservation(t *testing.T) {
	g := twoTriangles(t)
	var r Report
	CheckWeightConservation(&r, g, g, "self")
	if !r.Ok() {
		t.Fatalf("identical graphs flagged: %v", r.Err())
	}

	shrunk := twoTriangles(t)
	shrunk.Weights[0] = 0.25
	shrunk.Weights[1] = 0.25
	r = Report{}
	CheckWeightConservation(&r, g, shrunk, "lossy")
	if r.Ok() {
		t.Fatalf("lost weight not flagged")
	}
}

func TestCheckDeltaQCatchesInflatedGains(t *testing.T) {
	g, _ := gen.SocialNetwork(600, 8, 8, 0.2, 1)
	opt := core.DefaultOptions()
	opt.Threads = 1
	res := core.Louvain(g, opt)

	var r Report
	CheckDeltaQ(&r, g, opt, res, 1e-9)
	if !r.Ok() {
		t.Fatalf("honest run flagged: %v", r.Err())
	}

	// A double-counted parallel ΔQ bug reports gains the final quality
	// cannot cash.
	res.Stats.Passes[0].DeltaQ += 0.5
	r = Report{}
	CheckDeltaQ(&r, g, opt, res, 1e-9)
	if r.Ok() {
		t.Fatalf("inflated ΔQ not flagged")
	}
	res.Stats.Passes[0].DeltaQ -= 0.5

	// Gross under-reporting (gains never recorded) also fails.
	res.Stats.Passes[0].DeltaQ -= 0.5
	r = Report{}
	CheckDeltaQ(&r, g, opt, res, 1e-9)
	if r.Ok() {
		t.Fatalf("under-reported ΔQ not flagged")
	}
}

func TestCheckRunCatchesWrongCommunityCount(t *testing.T) {
	g := twoTriangles(t)
	res := &core.Result{Membership: []uint32{0, 0, 0, 1, 1, 1}, NumCommunities: 2}
	var r Report
	CheckRun(&r, g, res, true, 2)
	if !r.Ok() {
		t.Fatalf("consistent result flagged: %v", r.Err())
	}
	res.NumCommunities = 3
	r = Report{}
	CheckRun(&r, g, res, true, 2)
	if r.Ok() {
		t.Fatalf("wrong NumCommunities not flagged")
	}
}

// TestChecksRejectShortMembership: a membership shorter than the graph
// must be reported as a partition-validity violation by the whole-run
// and the per-level checks, without running the connectivity check,
// which indexes the graph's vertices by it.
func TestChecksRejectShortMembership(t *testing.T) {
	g := gen.Path(10)
	short := []uint32{0, 0, 0, 1, 1}
	wantInvalid := func(what string, r *Report) {
		t.Helper()
		if len(r.Violations) == 0 || r.Violations[0].Invariant != "partition-validity" {
			t.Fatalf("%s: want a partition-validity violation first, got %v", what, r.Violations)
		}
		for _, v := range r.Violations {
			if v.Invariant == "connectivity" {
				t.Fatalf("%s: connectivity checked on an invalid partition: %v", what, v)
			}
		}
	}
	var r Report
	CheckRun(&r, g, &core.Result{Membership: short, NumCommunities: 2}, true, 2)
	wantInvalid("CheckRun", &r)

	ab := graph.NewBuilder(2)
	ab.AddEdge(0, 1, 9)
	lc := &LevelChecks{R: &Report{}, Threads: 2}
	lc.Inspector()(core.LevelEvent{
		Algorithm: "leiden", Graph: g, Move: short, Refined: short,
		Communities: 2, Aggregated: ab.Build(),
	})
	wantInvalid("LevelChecks", lc.R)
}

func TestLevelChecksCatchPlantedViolation(t *testing.T) {
	g, _ := gen.SocialNetwork(800, 8, 8, 0.2, 1)
	lc := &LevelChecks{R: &Report{}, Threads: 2}
	opt := lc.Attach(core.DefaultOptions())
	opt.Threads = 2
	res := core.Leiden(g, opt)
	if lc.Levels == 0 {
		t.Fatalf("inspector never fired")
	}
	if err := lc.R.Err(); err != nil {
		t.Fatalf("level invariants violated on honest run: %v", err)
	}
	CheckRun(lc.R, g, res, true, 2)
	if err := lc.R.Err(); err != nil {
		t.Fatalf("run checks failed: %v", err)
	}

	// A fabricated event with an inconsistent community count must be
	// flagged (synthetic: corrupting a live run's aliased buffers would
	// crash the algorithm itself rather than exercise the oracle).
	small := twoTriangles(t)
	ab := graph.NewBuilder(2)
	// Each triangle's 6 arcs of weight 1 collapse to one self-loop arc
	// of weight 6, keeping TotalWeight (an arc sum) at 12.
	ab.AddEdge(0, 0, 6)
	ab.AddEdge(1, 1, 6)
	agg := ab.Build()
	ev := core.LevelEvent{
		Algorithm: "leiden", Pass: 0, Graph: small,
		Move: []uint32{0, 0, 0, 1, 1, 1}, Refined: []uint32{0, 0, 0, 1, 1, 1},
		Communities: 2, Aggregated: agg,
	}
	lc2 := &LevelChecks{R: &Report{}, Threads: 1}
	lc2.Inspector()(ev)
	if err := lc2.R.Err(); err != nil {
		t.Fatalf("consistent synthetic event flagged: %v", err)
	}
	ev.Communities = 3 // contradicts both the labels and the aggregated size
	lc3 := &LevelChecks{R: &Report{}, Threads: 1}
	lc3.Inspector()(ev)
	if lc3.R.Ok() {
		t.Fatalf("inconsistent community count not flagged")
	}
}
