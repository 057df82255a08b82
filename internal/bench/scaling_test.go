package bench

import (
	"os"
	"runtime"
	"testing"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

func TestStrongScalingSmall(t *testing.T) {
	curves := StrongScaling(20_000, 6, 2, 1, []string{"road"})
	if len(curves) != 1 {
		t.Fatalf("got %d curves, want 1", len(curves))
	}
	c := curves[0]
	if c.Class != "road" || c.Vertices == 0 || c.Arcs == 0 {
		t.Fatalf("curve metadata incomplete: %+v", c)
	}
	if len(c.Points) != 2 || c.Points[0].Threads != 1 || c.Points[1].Threads != 2 {
		t.Fatalf("want thread counts [1 2], got %+v", c.Points)
	}
	if c.Points[0].Speedup != 1 {
		t.Errorf("1-thread point must have speedup 1, got %g", c.Points[0].Speedup)
	}
	for _, p := range c.Points {
		if p.BestMs <= 0 || p.Modularity <= 0 || p.Communities < 2 {
			t.Errorf("degenerate point %+v", p)
		}
		if p.PruningHitRate <= 0 {
			t.Errorf("t=%d: expected nonzero pruning hit rate", p.Threads)
		}
		if p.FlatScans <= 0 {
			t.Errorf("t=%d: road vertices have degree ≤4, expected flat scans", p.Threads)
		}
	}
}

func TestScalingThreadCounts(t *testing.T) {
	for _, tc := range []struct {
		max  int
		want []int
	}{
		{1, []int{1, 2}},
		{2, []int{1, 2}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
	} {
		got := scalingThreadCounts(tc.max)
		if len(got) != len(tc.want) {
			t.Fatalf("max=%d: got %v, want %v", tc.max, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("max=%d: got %v, want %v", tc.max, got, tc.want)
			}
		}
	}
}

// TestScaleSmoke is the CI scale-smoke job: stream a ~1M-vertex ER
// graph, run one Leiden pass sequence on 2+ threads, and assert the
// work-stealing runtime actually stole — the end-to-end liveness check
// for the million-vertex path. Gated behind an env var so the regular
// test run stays fast; CI sets GVE_SCALE_SMOKE=1 with a job timeout.
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("GVE_SCALE_SMOKE") == "" {
		t.Skip("set GVE_SCALE_SMOKE=1 to run the bounded large-graph smoke test")
	}
	const n = 1_000_000
	threads := runtime.NumCPU()
	if threads < 2 {
		threads = 2
	}
	pool := parallel.NewPool(threads)
	defer pool.Close()

	start := time.Now()
	g := graph.BuildStreamWith(pool, threads, n, gen.StreamedER(n, 8, 1))
	t.Logf("streamed %d vertices / %d arcs in %s", g.NumVertices(), g.NumArcs(), time.Since(start).Round(time.Millisecond))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	opt := core.DefaultOptions()
	opt.Threads = threads
	opt.Pool = pool
	pool.ResetCounters()
	start = time.Now()
	res := core.Leiden(g, opt)
	c := pool.Counters()
	t.Logf("leiden: %s, Q=%.4f, %d communities, steals=%d itemsStolen=%d",
		time.Since(start).Round(time.Millisecond), res.Modularity, res.NumCommunities, c.Steals, c.ItemsStolen)

	if res.Modularity <= 0.1 || res.NumCommunities < 2 {
		t.Errorf("degenerate result: Q=%g, %d communities", res.Modularity, res.NumCommunities)
	}
	if c.Steals == 0 {
		t.Errorf("expected nonzero steal counters with %d threads on a %d-vertex graph", threads, n)
	}
}
