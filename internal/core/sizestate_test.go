package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
)

// runSized runs one entry point on a workspace whose CPM size state is
// forced on under modularity, so every size read and write happens as
// in a CPM run while ΔQ still decides. kind is "leiden", "hierarchy" or
// "louvain".
func runSized(g *graph.CSR, opt Options, kind string) (*Result, *Hierarchy) {
	ws := newWorkspace(g, opt.normalize())
	ws.sizes = newSizeState(g.NumVertices())
	switch kind {
	case "louvain":
		return ws.louvain(g), nil
	case "hierarchy":
		ws.hierarchy = &Hierarchy{}
	}
	return ws.leiden(g), ws.hierarchy
}

// runPublic is runSized through the public entry points, where a
// modularity run keeps no size state.
func runPublic(g *graph.CSR, opt Options, kind string) (*Result, *Hierarchy) {
	switch kind {
	case "louvain":
		return Louvain(g, opt), nil
	case "hierarchy":
		return LeidenHierarchy(g, opt)
	}
	return Leiden(g, opt), nil
}

// passCounters is a pass's statistics without its timings.
func passCounters(ps PassStats) PassStats {
	ps.Move, ps.Refine, ps.Aggregate, ps.Color, ps.Split, ps.Other = 0, 0, 0, 0, 0, 0
	return ps
}

// TestSizeStateChangesNoModularityDecision pins that dropping CPM's size
// state from modularity runs changed no decision: ΔQ never reads it, so
// a run with the state forced on must match the public entry points in
// membership, modularity, quality, hierarchy and per-pass counters, on
// all four graph classes, at t=1 and in deterministic mode at t=2.
func TestSizeStateChangesNoModularityDecision(t *testing.T) {
	web, _ := gen.WebGraph(1500, 10, 3)
	social, _ := gen.SocialNetwork(1500, 12, 10, 0.3, 5)
	road, _ := gen.RoadNetwork(1600, 7)
	kmer, _ := gen.KmerGraph(1500, 9)
	graphs := []struct {
		name string
		g    *graph.CSR
	}{{"web", web}, {"social", social}, {"road", road}, {"kmer", kmer}}
	variants := []struct {
		name string
		kind string
		set  func(*Options)
	}{
		{"leiden", "leiden", func(*Options) {}},
		{"hierarchy", "hierarchy", func(*Options) {}},
		{"louvain", "louvain", func(*Options) {}},
		{"final-refine", "leiden", func(o *Options) { o.FinalRefine = true }},
		{"louvain-final-refine", "louvain", func(o *Options) { o.FinalRefine = true }},
		{"random-refine", "leiden", func(o *Options) { o.Refinement = RefineRandom }},
		{"gamma", "hierarchy", func(o *Options) { o.Resolution = 1.7 }},
	}
	for _, gc := range graphs {
		for _, det := range []bool{false, true} {
			for _, v := range variants {
				opt := testOpts(1)
				if det {
					opt = testOpts(2)
					opt.Deterministic = true
				}
				v.set(&opt)
				want, wantH := runPublic(gc.g, opt, v.kind)
				got, gotH := runSized(gc.g, opt, v.kind)
				name := gc.name + "/" + v.name
				if det {
					name += "/deterministic-t2"
				}
				compareRuns(t, name, det, true, want, got, wantH, gotH)
			}
		}
	}
}

// compareRuns reports every difference between two runs that must
// decide identically: memberships, community and pass counts,
// Modularity and Quality bit for bit, every per-pass counter (FlatScans
// only when flatScans is set) and the hierarchy levels. A deterministic
// t=2 run's per-pass ΔQ is compared to 1e-12 instead: a color class
// commits its movers in per-thread bucket order, which scheduling
// decides, so its realized ΔQ rounds differently from run to run.
func compareRuns(t *testing.T, name string, det, flatScans bool, want, got *Result, wantH, gotH *Hierarchy) {
	t.Helper()
	if !slices.Equal(want.Membership, got.Membership) {
		t.Errorf("%s: memberships differ", name)
		return
	}
	if want.NumCommunities != got.NumCommunities || want.Passes != got.Passes ||
		math.Float64bits(want.Modularity) != math.Float64bits(got.Modularity) ||
		math.Float64bits(want.Quality) != math.Float64bits(got.Quality) {
		t.Errorf("%s: result differs: %d comms, %d passes, Q %v, quality %v; got %d, %d, %v, %v", name,
			want.NumCommunities, want.Passes, want.Modularity, want.Quality,
			got.NumCommunities, got.Passes, got.Modularity, got.Quality)
	}
	if len(want.Stats.Passes) != len(got.Stats.Passes) {
		t.Errorf("%s: %d pass stats, got %d", name, len(want.Stats.Passes), len(got.Stats.Passes))
		return
	}
	for p := range want.Stats.Passes {
		w, g := passCounters(want.Stats.Passes[p]), passCounters(got.Stats.Passes[p])
		if !flatScans {
			w.FlatScans, g.FlatScans = 0, 0
		}
		if det {
			if math.Abs(w.DeltaQ-g.DeltaQ) > 1e-12 {
				t.Errorf("%s: pass %d ΔQ %v, got %v", name, p, w.DeltaQ, g.DeltaQ)
			}
			w.DeltaQ, g.DeltaQ = 0, 0
		}
		if !equalPassCounters(w, g) {
			t.Errorf("%s: pass %d counters differ:\n  %+v\n  %+v", name, p, w, g)
		}
	}
	if (wantH == nil) != (gotH == nil) {
		t.Fatalf("%s: hierarchy recorded on one side only", name)
	}
	if wantH == nil {
		return
	}
	if wantH.Depth() != gotH.Depth() {
		t.Errorf("%s: depth %d, got %d", name, wantH.Depth(), gotH.Depth())
		return
	}
	for l := range wantH.Levels {
		wl, gl := wantH.Levels[l], gotH.Levels[l]
		if wl.Communities != gl.Communities || wl.Vertices != gl.Vertices ||
			!slices.Equal(wl.Membership, gl.Membership) {
			t.Errorf("%s: level %d differs", name, l)
		}
	}
}

func equalPassCounters(a, b PassStats) bool {
	return slices.Equal(a.IterMoves, b.IterMoves) &&
		a.Vertices == b.Vertices && a.Arcs == b.Arcs &&
		a.MoveIterations == b.MoveIterations && a.Scanned == b.Scanned &&
		a.Pruned == b.Pruned && a.FlatScans == b.FlatScans && a.Moves == b.Moves &&
		math.Float64bits(a.DeltaQ) == math.Float64bits(b.DeltaQ) &&
		a.RefineMoves == b.RefineMoves && a.Communities == b.Communities &&
		math.Float64bits(a.AggOccupancy) == math.Float64bits(b.AggOccupancy)
}

// TestCPMMembershipsPinned pins CPM runs, the only ones that keep the
// size state, to the crc32 of each membership (little-endian uint32s)
// and the exact Result.Quality. The values come from the last commit at
// which every run kept the size state.
//
// The pin holds on amd64 only. Go may fuse x*y±z into one FMA
// instruction on arm64, ppc64le, s390x, riscv64 and loong64, and ΔH
// and the quality sum have that shape, so a correct build there can
// differ in the last bit and then in a tie-break.
func TestCPMMembershipsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-exact pin recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	web, _ := gen.WebGraph(1500, 12, 37)
	social, _ := gen.SocialNetwork(2000, 10, 8, 0.3, 7)
	for _, c := range []struct {
		name    string
		g       *graph.CSR
		gamma   float64
		det     bool
		crc     uint32
		quality float64
	}{
		{"web", web, 0.02, false, 0x4602e7cf, 0.3247393364928911},
		{"web", web, 0.02, true, 0x8a7423ed, 0.3197367035281728},
		{"social", social, 0.01, false, 0x40b0b06b, 0.35942599999999997},
		{"social", social, 0.01, true, 0x3139bb7a, 0.372282},
	} {
		opt := testOpts(1)
		if c.det {
			opt = testOpts(2)
			opt.Deterministic = true
		}
		opt.Objective = ObjectiveCPM
		opt.Resolution = c.gamma
		res := Leiden(c.g, opt)
		b := make([]byte, 4*len(res.Membership))
		for i, m := range res.Membership {
			binary.LittleEndian.PutUint32(b[4*i:], m)
		}
		if got := crc32.ChecksumIEEE(b); got != c.crc || res.Quality != c.quality {
			t.Errorf("%s (deterministic %v): crc32 %#08x quality %v, pinned %#08x %v",
				c.name, c.det, got, res.Quality, c.crc, c.quality)
		}
	}
}
