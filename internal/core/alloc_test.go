package core

import (
	"runtime"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
)

// allocatedBy returns the bytes run allocates, from the growth of
// runtime.MemStats.TotalAlloc.
func allocatedBy(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRunAllocationBudget bounds what one run allocates, so the
// level-sized workspace cannot silently grow back to buffers sized for
// the input graph at every level. The bounds sit between what the
// level-sized workspace allocates and what the workspace it replaced
// did: at 10⁵ vertices and 2 threads, 8.8 MB against 13.9 MB for a
// cold run on a road graph, 10.2 MB against 15.4 MB for a warm run on a
// k-mer graph.
func TestRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort TotalAlloc")
	}
	const n = 100000
	opt := testOpts(2)
	road, _ := gen.RoadNetwork(n, 1)
	cold := allocatedBy(func() { Leiden(road, opt) })

	kmer, _ := gen.KmerGraph(n, 1)
	prev := Leiden(kmer, opt).Membership
	ins, del := graph.RandomDelta(kmer, 500, 500, 7)
	next, err := graph.ApplyDelta(kmer, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	delta := Delta{Insertions: ins, Deletions: del}
	warm := allocatedBy(func() { LeidenDynamicHierarchy(next, prev, delta, DynamicFrontier, opt) })

	t.Logf("road cold %.2f MB, k-mer warm %.2f MB", float64(cold)/1e6, float64(warm)/1e6)
	for _, c := range []struct {
		name       string
		got, bound uint64
	}{{"road cold Leiden", cold, 11e6}, {"k-mer warm LeidenDynamicHierarchy", warm, 12.5e6}} {
		if c.got > c.bound {
			t.Errorf("%s allocated %.2f MB, budget %.2f MB", c.name, float64(c.got)/1e6, float64(c.bound)/1e6)
		}
	}
}
