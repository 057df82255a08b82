package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/observe"
	"gveleiden/internal/oracle"
	"gveleiden/internal/parallel"
	"gveleiden/internal/stream"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Options.Threads = 2
	return cfg
}

// startServer builds a Server over a small social network and mounts
// it on an httptest listener, cleaning both up with the test.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	g, _ := gen.SocialNetwork(2000, 10, 8, 0.3, 7)
	return startServerOn(t, g, cfg)
}

// startServerOn is startServer over the given graph.
func startServerOn(t *testing.T, g *graph.CSR, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, NewClient(ts.URL)
}

// waitVersion polls /stats until the published version reaches at
// least want.
func waitVersion(t *testing.T, c *Client, want uint64) StatsResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Version >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("version %d not reached (at %d)", want, st.Version)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitRejections polls until the gate has refused at least want
// candidates.
func waitRejections(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for s.Rejections() < want {
		if time.Now().After(deadline) {
			t.Fatalf("rejections %d not reached (at %d)", want, s.Rejections())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// driveSwaps publishes k swaps, each growing the graph by one vertex
// of degree two: vertex n0+i joins vertices (n0+i) mod n0 and
// (n0+i+1) mod n0.
func driveSwaps(t *testing.T, c *Client, n0 uint32, k int) {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		u := n0 + uint32(i)
		if _, err := c.ApplyDelta([]EdgeUpdate{{U: u, V: u % n0, W: 1}, {U: u, V: (u + 1) % n0, W: 1}}, nil); err != nil {
			t.Fatal(err)
		}
		waitVersion(t, c, st.Version+uint64(i)+1)
	}
}

func TestServeQueries(t *testing.T) {
	s, c := startServer(t, testConfig())
	snap := s.Snapshot()
	if snap.Version != 1 {
		t.Fatalf("initial version = %d, want 1", snap.Version)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Vertices != 2000 || st.Communities < 2 || st.Modularity <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.Depth < 1 {
		t.Fatal("no dendrogram depth in stats")
	}

	for _, v := range []uint32{0, 7, 1999} {
		cr, err := c.Community(v)
		if err != nil {
			t.Fatal(err)
		}
		if int(cr.Community) >= st.Communities {
			t.Fatalf("community %d out of range", cr.Community)
		}
		mr, err := c.Members(cr.Community, 0)
		if err != nil {
			t.Fatal(err)
		}
		if mr.Size != cr.Size || len(mr.Members) != mr.Size {
			t.Fatalf("member count mismatch: community says %d, members says %d/%d",
				cr.Size, mr.Size, len(mr.Members))
		}
		found := false
		for _, m := range mr.Members {
			if m == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("vertex %d missing from its own community %d", v, cr.Community)
		}

		nr, err := c.Neighbors(v)
		if err != nil {
			t.Fatal(err)
		}
		if nr.Community != cr.Community {
			t.Fatalf("neighbors community %d != community %d", nr.Community, cr.Community)
		}
		for _, nb := range nr.Neighbors {
			ncr, err := c.Community(nb.V)
			if err != nil {
				t.Fatal(err)
			}
			if ncr.Community != cr.Community {
				t.Fatalf("intra-community neighbor %d is in community %d, not %d",
					nb.V, ncr.Community, cr.Community)
			}
		}

		hr, err := c.Hierarchy(v)
		if err != nil {
			t.Fatal(err)
		}
		if hr.Depth < 1 || len(hr.Levels) != hr.Depth {
			t.Fatalf("bad hierarchy response: %+v", hr)
		}
		for d, c := range hr.Levels {
			if flat, _ := snap.Hierarchy.Flatten(d + 1); flat[v] != c {
				t.Fatalf("vertex %d at depth %d: served community %d, Flatten says %d", v, d+1, c, flat[v])
			}
		}
	}

	// Truncation: limit=3 keeps Size at the full count.
	cr, _ := c.Community(0)
	if cr.Size > 3 {
		mr, err := c.Members(cr.Community, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(mr.Members) != 3 || mr.Size != cr.Size {
			t.Fatalf("limit truncation wrong: got %d members, size %d (want 3, %d)",
				len(mr.Members), mr.Size, cr.Size)
		}
	}

	// Error paths.
	if _, err := c.Community(999999); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range vertex error = %v", err)
	}
	if _, err := c.Members(999999, 0); err == nil {
		t.Fatal("out-of-range community must fail")
	}
	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDeltaRecompute ingests a batch and waits for the swapped
// snapshot: version bumps, the new vertex exists, and the swap was
// warm-started.
func TestServeDeltaRecompute(t *testing.T) {
	s, c := startServer(t, testConfig())
	n := uint32(s.Snapshot().Graph.NumVertices())

	ins := []EdgeUpdate{{U: n, V: 0, W: 2}, {U: n, V: 1, W: 2}, {U: 0, V: 1}}
	dr, err := c.ApplyDelta(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dr.Accepted || dr.Insertions != 3 {
		t.Fatalf("delta response: %+v", dr)
	}

	st := waitVersion(t, c, 2)
	if st.Vertices != int(n)+1 {
		t.Fatalf("vertices after growth = %d, want %d", st.Vertices, n+1)
	}
	if !st.Warm {
		t.Fatal("recompute was not warm-started")
	}
	if _, err := c.Community(n); err != nil {
		t.Fatalf("new vertex not queryable: %v", err)
	}
	if st.PendingInsertions != 0 || st.PendingDeletions != 0 {
		t.Fatalf("pending delta not drained: %+v", st)
	}
}

// TestServeConcurrentQueriesDuringRecompute hammers the read path from
// many goroutines while deltas force snapshot swaps underneath. Every
// response must be internally consistent — a vertex always appears in
// the member list of the community the *same snapshot version* assigned
// it — and under -race this doubles as the lock-free-read proof. A
// community id can outlive its snapshot: after a swap shrinks the
// community count, /members answers 404 for it, which is correct only
// once the published version has moved past the id's.
func TestServeConcurrentQueriesDuringRecompute(t *testing.T) {
	s, c := startServer(t, testConfig())
	n := uint32(s.Snapshot().Graph.NumVertices())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			rng := seed*2654435761 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*1664525 + 1013904223
				v := rng % n
				cr, err := c.Community(v)
				if err != nil {
					report(err)
					return
				}
				mr, err := c.Members(cr.Community, 0)
				if err != nil {
					if strings.HasSuffix(err.Error(), "(status 404)") && s.Snapshot().Version > cr.Version {
						continue // the id came from a replaced snapshot
					}
					report(err)
					return
				}
				if mr.Version != cr.Version {
					continue // swapped between the two requests: no cross-version claim
				}
				found := false
				for _, m := range mr.Members {
					if m == v {
						found = true
						break
					}
				}
				if !found {
					report(fmt.Errorf("version %d: vertex %d not in its community %d (%d members)",
						cr.Version, v, cr.Community, len(mr.Members)))
					return
				}
			}
		}(uint32(w))
	}

	driveSwaps(t, c, n, 3)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := c.Healthz(); err != nil {
		t.Fatalf("healthz after swaps: %v", err)
	}
}

// TestServeOracleGateRejection forces the differential gate to refuse
// every candidate (a negative MaxQualityDrop demands an impossible
// improvement): the previous snapshot must keep serving, the rejection
// must be observable in /stats and /metrics, and /healthz stays green.
func TestServeOracleGateRejection(t *testing.T) {
	cfg := testConfig()
	cfg.MaxQualityDrop = -10 // candidate must beat prev by 10 — impossible
	s, c := startServer(t, cfg)
	before, _ := c.Community(0)

	if _, err := c.ApplyDelta([]EdgeUpdate{{U: 0, V: 999, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	waitRejections(t, s, 1)

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 {
		t.Fatalf("rejected candidate was published: version %d", st.Version)
	}
	if st.Rejections < 1 || !strings.Contains(st.LastRejection, "differential-quality") {
		t.Fatalf("rejection not recorded: %+v", st)
	}
	// The consumed delta is re-queued for the next (still-gated) attempt.
	if st.PendingInsertions != 1 {
		t.Fatalf("rejected delta not re-queued: %+v", st)
	}

	// Old snapshot still serves, byte-for-byte.
	after, err := c.Community(0)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("serving state changed across rejection: %+v -> %+v", before, after)
	}
	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}

	// Rejection visible on the Prometheus scrape.
	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "gveserve_recompute_rejections_total") {
		t.Fatal("rejections counter missing from /metrics")
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "gveserve_recompute_rejections_total") {
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("rejections counter still zero: %s", line)
			}
		}
	}
}

// TestServeInvalidDeltaIsNoOp sends a batch deleting a missing edge:
// the request must fail 400, the mutable graph must stay unmutated (a
// later valid batch still applies against the original state), and no
// recompute must be triggered by the failed ingest.
func TestServeInvalidDeltaIsNoOp(t *testing.T) {
	s, c := startServer(t, testConfig())
	es, _ := s.Snapshot().Graph.Neighbors(0)
	if len(es) == 0 {
		t.Fatal("vertex 0 has no neighbors")
	}
	good := es[0]

	// {0,good} exists; delete it twice in one batch — invalid as a whole,
	// so even the first (individually valid) deletion must not apply.
	_, err := c.ApplyDelta(nil, []EdgeUpdate{{U: 0, V: good}, {U: good, V: 0}})
	if err == nil || !strings.Contains(err.Error(), "duplicate deletion") {
		t.Fatalf("duplicate deletion error = %v", err)
	}
	_, err = c.ApplyDelta(nil, []EdgeUpdate{{U: 0, V: 1999999}})
	if err == nil || !strings.Contains(err.Error(), "missing edge") {
		t.Fatalf("missing deletion error = %v", err)
	}

	st, _ := c.Stats()
	if st.PendingDeletions != 0 || st.PendingInsertions != 0 {
		t.Fatalf("failed batch left pending state: %+v", st)
	}
	if st.Version != 1 {
		t.Fatalf("failed batch triggered a recompute: version %d", st.Version)
	}

	// The single deletion is still valid — the failed batches were no-ops.
	if _, err := c.ApplyDelta(nil, []EdgeUpdate{{U: 0, V: good}}); err != nil {
		t.Fatalf("valid deletion after failed batches: %v", err)
	}
	waitVersion(t, c, 2)
}

// TestServeRequestLimits exercises the two ingest guards: an oversized
// batch and an oversized body both answer 413 without mutating.
func TestServeRequestLimits(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 4
	cfg.MaxBody = 256
	_, c := startServer(t, cfg)

	big := make([]EdgeUpdate, 5)
	for i := range big {
		big[i] = EdgeUpdate{U: 0, V: uint32(i + 1), W: 1}
	}
	_, err := c.ApplyDelta(big, nil)
	if err == nil || !strings.Contains(err.Error(), "status 413") {
		t.Fatalf("oversized batch error = %v", err)
	}

	// A body over MaxBody trips MaxBytesReader before batch counting.
	huge := strings.NewReader(`{"insertions":[` + strings.Repeat(`{"u":1,"v":2,"w":1},`, 50) + `{"u":1,"v":2,"w":1}]}`)
	resp, err := http.Post(c.Base+"/delta", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}

	st, _ := c.Stats()
	if st.PendingInsertions != 0 || st.Version != 1 {
		t.Fatalf("limit-rejected requests mutated state: %+v", st)
	}
}

// TestServeRecomputeEndpoint: a bare /recompute (no delta) republishes
// a fresh snapshot — still warm-started, still gated.
func TestServeRecomputeEndpoint(t *testing.T) {
	_, c := startServer(t, testConfig())
	rr, err := c.Recompute()
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Queued {
		t.Fatalf("recompute response: %+v", rr)
	}
	st := waitVersion(t, c, 2)
	if !st.Warm {
		t.Fatal("recompute was not warm-started")
	}
}

// TestServeGateRunsInvariantSuite: sanity-check that the gate itself
// catches a corrupt membership, independent of the differential bound.
func TestServeGateRejectsCorruptPartition(t *testing.T) {
	g, _ := gen.SocialNetwork(500, 10, 8, 0.3, 7)
	cfg := testConfig()
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	res := &core.Result{
		Membership:     make([]uint32, g.NumVertices()),
		NumCommunities: 2, // labels are all 0 — not dense in [0,2)
	}
	if _, _, err := s.gate(g, stream.Merge{}, res, s.Snapshot()); err == nil {
		t.Fatal("gate accepted a corrupt partition")
	}
}

// TestServeIngestDirect exercises the library-level ingest path used
// by embedders (no HTTP): invalid batch errors and mutates nothing.
func TestServeIngestDirect(t *testing.T) {
	g, _ := gen.SocialNetwork(500, 10, 8, 0.3, 7)
	s, err := New(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	if err := s.Ingest(nil, []graph.Edge{{U: 0, V: 499}, {U: 0, V: 499}}); err == nil {
		t.Fatal("duplicate deletion must fail")
	}
	if err := s.Ingest([]graph.Edge{{U: 1, V: 2, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServeAdoptsCallerGraph: the server serves the caller's graph as
// its initial snapshot and adopts it as the stream base, so swaps must
// build new graphs and leave it bit-identical; /stats reports every
// swapped graph's edge count from the count recorded at publication.
func TestServeAdoptsCallerGraph(t *testing.T) {
	g, _ := gen.SocialNetwork(2000, 10, 8, 0.3, 7)
	want := g.Clone()
	s, c := startServerOn(t, g, testConfig())
	if s.Snapshot().Graph != g {
		t.Fatal("the initial snapshot does not serve the caller's graph")
	}
	n := uint32(g.NumVertices())
	for i := 0; i < 4; i++ {
		// Delete one of the caller's edges too, so the merge has to drop
		// a base arc.
		es, _ := g.Neighbors(uint32(i))
		del := []EdgeUpdate{{U: uint32(i), V: es[len(es)-1]}}
		u := n + uint32(i)
		if _, err := c.ApplyDelta([]EdgeUpdate{{U: u, V: 0, W: 1}, {U: 1, V: 2, W: 0.5}}, del); err != nil {
			t.Fatal(err)
		}
		st := waitVersion(t, c, uint64(2+i))
		if got := s.Snapshot().Graph.NumUndirectedEdges(); st.Edges != got {
			t.Fatalf("version %d: /stats edges %d, graph has %d", st.Version, st.Edges, got)
		}
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatal("swaps modified the caller's graph")
	}
}

// TestServeSwapStageMetrics: every published swap, initial build
// included, is counted once per stage under its kind of run, full or
// resumed, as its flight record says; per stage the two kinds together
// count every published swap, and the run, gate and index stages fit
// inside the flight records' wall time.
func TestServeSwapStageMetrics(t *testing.T) {
	s, c := startServer(t, testConfig())
	driveSwaps(t, c, uint32(s.Snapshot().Graph.NumVertices()), 3)
	// The flight record is written last in a swap: once all are in,
	// every stage of every swap has been observed.
	recs := flightRecords(t, s, uint64(s.Recomputes()))
	var wall float64
	kinds := map[string]uint64{}
	for _, r := range recs {
		wall += r.WallSeconds
		kind := swapKinds[0]
		if r.Resumed {
			kind = swapKinds[1]
		}
		kinds[kind]++
	}
	if kinds["full"] == 0 || kinds["resumed"] == 0 {
		t.Fatalf("flight records of each kind: %v, want both", kinds)
	}
	sums := map[string]float64{}
	counts := map[string]uint64{}
	for _, m := range s.gatherMetrics().Metrics() {
		if m.Name != "gveserve_swap_stage_seconds" {
			continue
		}
		stage, kind := m.Labels[0].Value, m.Labels[1].Value
		if m.Labels[1].Name != "kind" || m.Count != kinds[kind] {
			t.Fatalf("stage %s, %s=%s counted %d swaps; the flight records hold %d of kind %s",
				stage, m.Labels[1].Name, kind, m.Count, kinds[kind], kind)
		}
		sums[stage] += m.Sum
		counts[stage] += m.Count
	}
	if len(sums) != len(stageNames) {
		t.Fatalf("stages exported: %v", sums)
	}
	for stage, n := range counts {
		if n != uint64(s.Recomputes()) {
			t.Fatalf("stage %s counted %d swaps over both kinds, %d published", stage, n, s.Recomputes())
		}
	}
	if inRun := sums["run"] + sums["gate"] + sums["index"]; inRun > wall {
		t.Fatalf("run+gate+index %.6fs exceed the flight wall time %.6fs", inRun, wall)
	}
}

// TestServeZeroWeightEdge: the server serves the graph its stream
// holds. A loader keeps an edge of weight 0, which the stream drops,
// so the first snapshot must not contain it either; /stats must count
// exactly the edges deltas act on across a swap; and every edge
// /neighbors returns must be deletable.
func TestServeZeroWeightEdge(t *testing.T) {
	base, _ := gen.SocialNetwork(2000, 10, 8, 0.3, 7)
	if base.HasArc(0, 1999) {
		t.Fatal("the generator graph already has {0,1999}")
	}
	b := graph.NewBuilder(base.NumVertices())
	for i := 0; i < base.NumVertices(); i++ {
		es, ws := base.Neighbors(uint32(i))
		for k, e := range es {
			if uint32(i) <= e {
				b.AddEdge(uint32(i), e, ws[k])
			}
		}
	}
	b.AddEdge(0, 1999, 0)
	s, c := startServerOn(t, b.Build(), testConfig())

	if g := s.Snapshot().Graph; g.HasArc(0, 1999) || g.HasArc(1999, 0) {
		t.Fatal("the first snapshot serves the zero-weight edge")
	}
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Edges != base.NumUndirectedEdges() {
		t.Fatalf("/stats edges %d, want %d", before.Edges, base.NumUndirectedEdges())
	}

	var del []EdgeUpdate
	seen := map[uint64]bool{}
	for _, v := range []uint32{0, 1999} {
		nr, err := c.Neighbors(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range nr.Neighbors {
			if k := graph.PairKey(v, nb.V); !seen[k] {
				seen[k] = true
				del = append(del, EdgeUpdate{U: v, V: nb.V})
			}
		}
	}
	if len(del) == 0 {
		t.Fatal("/neighbors returned no edges to delete")
	}
	ins := []EdgeUpdate{{U: 0, V: 1999, W: 1}}
	if _, err := c.ApplyDelta(ins, del); err != nil {
		t.Fatalf("deleting the edges /neighbors returned: %v", err)
	}
	st := waitVersion(t, c, before.Version+1)
	if want := before.Edges + int64(len(ins)) - int64(len(del)); st.Edges != want {
		t.Fatalf("/stats edges after the swap = %d, want %d + %d - %d", st.Edges, before.Edges, len(ins), len(del))
	}
	if got := s.Snapshot().Graph.NumUndirectedEdges(); got != st.Edges {
		t.Fatalf("/stats edges %d, published graph has %d", st.Edges, got)
	}
}

// panickyObserver panics at every pass boundary while armed.
type panickyObserver struct{ armed atomic.Bool }

func (o *panickyObserver) OnIteration(observe.IterEvent) {}

func (o *panickyObserver) OnPass(observe.PassEvent) {
	if o.armed.Load() {
		panic("injected observer panic")
	}
}

// TestServeRecomputePanicIsRejection injects a panic into the recompute
// run through the caller's observer: the worker must survive it as a
// rejection — version 1 keeps serving, the delta is re-queued, the
// panic shows in /stats and the flight record — and must publish the
// delta once the panics stop.
func TestServeRecomputePanicIsRejection(t *testing.T) {
	obs := &panickyObserver{}
	cfg := testConfig()
	cfg.Options.Observer = obs
	s, c := startServer(t, cfg)
	obs.armed.Store(true)

	if _, err := c.ApplyDelta([]EdgeUpdate{{U: 0, V: 999, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	waitRejections(t, s, 1)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 || st.PendingInsertions != 1 ||
		!strings.HasPrefix(st.LastRejection, "panic: injected observer panic") {
		t.Fatalf("after the panic: %+v", st)
	}
	recs := s.Telemetry().Flight().Records()
	if last := recs[len(recs)-1]; last.Check != "panic: injected observer panic" {
		t.Fatalf("flight record check %q", last.Check)
	}
	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}

	obs.armed.Store(false)
	s.Kick()
	st = waitVersion(t, c, 2)
	if st.PendingInsertions != 0 || !st.Warm {
		t.Fatalf("after recovery: %+v", st)
	}
}

// regionPanicObserver, while armed, runs a region on the run's pool at
// every pass boundary whose share on participant tid panics while the
// other participant is still busy in its own: tid 0 is the submitting
// (recompute) goroutine, tid 1 a pool worker.
type regionPanicObserver struct {
	pool  *parallel.Pool
	tid   int
	armed atomic.Bool
}

func (o *regionPanicObserver) OnIteration(observe.IterEvent) {}

func (o *regionPanicObserver) OnPass(observe.PassEvent) {
	if !o.armed.Load() {
		return
	}
	started := make(chan struct{})
	var once sync.Once
	o.pool.For(64, 2, 1, func(lo, hi, tid int) {
		if tid == o.tid {
			<-started
			panic("injected region panic")
		}
		once.Do(func() { close(started) })
		time.Sleep(time.Millisecond)
	})
}

// TestServeRegionPanicIsRejection panics inside a pooled parallel
// region of the recompute run, on the recompute goroutine and on a pool
// worker. The panic must be a rejection that leaves the pool drained:
// the next run, in deterministic mode, must publish exactly the
// membership a run on another pool computes from the same graph, warm
// start and delta.
func TestServeRegionPanicIsRejection(t *testing.T) {
	for _, tc := range []struct {
		name string
		tid  int
	}{{"submitter", 0}, {"worker", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			pool := parallel.NewPool(2)
			t.Cleanup(pool.Close) // after the server's own cleanup
			obs := &regionPanicObserver{pool: pool, tid: tc.tid}
			cfg := testConfig()
			cfg.Options.Pool = pool
			cfg.Options.Deterministic = true
			cfg.Options.Observer = obs
			s, c := startServer(t, cfg)
			v1 := s.Snapshot()
			obs.armed.Store(true)

			if _, err := c.ApplyDelta([]EdgeUpdate{{U: 0, V: 999, W: 1}}, nil); err != nil {
				t.Fatal(err)
			}
			waitRejections(t, s, 1)
			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Version != 1 || st.PendingInsertions != 1 ||
				!strings.HasPrefix(st.LastRejection, "panic: injected region panic") {
				t.Fatalf("after the panic: %+v", st)
			}

			obs.armed.Store(false)
			s.Kick()
			waitVersion(t, c, 2)
			v2 := s.Snapshot()
			opt := cfg.Options
			opt.Pool, opt.Observer = parallel.NewPool(2), nil
			defer opt.Pool.Close()
			want, _ := core.LeidenDynamicFrom(v2.Graph, v1.Result.Membership, v1.Hierarchy,
				core.Delta{Insertions: []graph.Edge{{U: 0, V: 999, W: 1}}}, cfg.Mode, opt)
			if !slices.Equal(v2.Result.Membership, want.Membership) {
				t.Fatal("the run after the recovered panic published a different membership than a run on another pool")
			}
		})
	}
}

// TestServeWarmHierarchyMatchesCommunities: two warm swaps in three
// resume, each from the published dendrogram, so their snapshots'
// dendrograms hold only the levels their own runs built, and every
// third swap's run rebuilds a full one. After each of three warm swaps
// (resumed, resumed again from the first one's dendrogram, and full),
// /hierarchy must answer Depth levels, and every vertex's deepest level
// must group the vertices exactly as /community does.
func TestServeWarmHierarchyMatchesCommunities(t *testing.T) {
	s, c := startServer(t, testConfig())
	cold := s.Snapshot()
	n0 := uint32(cold.Graph.NumVertices())
	var snaps []*Snapshot
	for i := uint32(0); i < 3; i++ {
		u := n0 + i
		if _, err := c.ApplyDelta([]EdgeUpdate{{U: u, V: u % n0, W: 1}, {U: u, V: (u + 1) % n0, W: 1}}, nil); err != nil {
			t.Fatal(err)
		}
		waitVersion(t, c, uint64(2+i))
		snap := s.Snapshot()
		checkHierarchyMatchesCommunities(t, c, snap, uint64(2+i))
		snaps = append(snaps, snap)
	}
	t.Logf("dendrogram depth: cold %d, after the warm swaps %d, %d, %d", cold.Depth(), snaps[0].Depth(), snaps[1].Depth(), snaps[2].Depth())
	for i, want := range []bool{true, true, false} {
		if got := snaps[i].Hierarchy.Inherited(); got != want {
			t.Fatalf("version %d: resumed %v, want %v", snaps[i].Version, got, want)
		}
	}
	for _, r := range snaps[:2] {
		if r.Depth() >= snaps[2].Depth() {
			t.Errorf("the resumed snapshot %d's dendrogram has %d levels, no fewer than the full one's %d", r.Version, r.Depth(), snaps[2].Depth())
		}
	}
}

// checkHierarchyMatchesCommunities holds every vertex's /hierarchy
// answer to the snapshot of the given version: Depth levels, and the
// deepest level grouping the vertices exactly as /community does.
func checkHierarchyMatchesCommunities(t *testing.T, c *Client, snap *Snapshot, version uint64) {
	t.Helper()
	if !snap.Warm || snap.Version != version {
		t.Fatalf("snapshot version %d, warm %v: want warm version %d", snap.Version, snap.Warm, version)
	}
	deepest := map[uint32]uint32{} // deepest-level community → /community's
	final := map[uint32]uint32{}   // and back
	for v := uint32(0); v < uint32(snap.Graph.NumVertices()); v++ {
		hr, err := c.Hierarchy(v)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := c.Community(v)
		if err != nil {
			t.Fatal(err)
		}
		if hr.Version != snap.Version || cr.Version != snap.Version {
			t.Fatalf("vertex %d answered from versions %d and %d, want %d", v, hr.Version, cr.Version, snap.Version)
		}
		if hr.Depth < 1 || len(hr.Levels) != hr.Depth || hr.Final != cr.Community {
			t.Fatalf("vertex %d: bad hierarchy response %+v (community %d)", v, hr, cr.Community)
		}
		d := hr.Levels[hr.Depth-1]
		if f, ok := deepest[d]; ok && f != cr.Community {
			t.Fatalf("deepest-level community %d holds vertices of communities %d and %d", d, f, cr.Community)
		}
		if l, ok := final[cr.Community]; ok && l != d {
			t.Fatalf("community %d spans deepest-level communities %d and %d", cr.Community, l, d)
		}
		deepest[d], final[cr.Community] = cr.Community, d
	}
}

// TestServeSwapCutsInheritedUnit: a deletion inside one of the
// published dendrogram's last-level super-vertices cuts the unit a
// warm run inherits. The run must split it, and the swap must publish.
func TestServeSwapCutsInheritedUnit(t *testing.T) {
	s, c := startServerOn(t, gen.Path(400), testConfig())
	h := s.Snapshot().Hierarchy
	if h.Depth() < 2 {
		t.Fatalf("cold dendrogram depth %d: no unit to inherit", h.Depth())
	}
	u, err := h.Flatten(h.Depth() - 1)
	if err != nil {
		t.Fatal(err)
	}
	i := -1
	for v := 1; v+2 < len(u); v++ {
		if u[v-1] == u[v] && u[v] == u[v+1] && u[v+1] == u[v+2] {
			i = v
			break
		}
	}
	if i < 0 {
		t.Fatal("no unit of four consecutive path vertices")
	}
	if _, err := c.ApplyDelta(nil, []EdgeUpdate{{U: uint32(i), V: uint32(i + 1)}}); err != nil {
		t.Fatal(err)
	}
	waitVersion(t, c, 2)
	if s.Rejections() != 0 {
		t.Fatalf("the gate rejected %d candidates", s.Rejections())
	}
	l0 := s.Snapshot().Hierarchy.Levels[0]
	if l0.Membership[i] == l0.Membership[i+1] || l0.Membership[i-1] != l0.Membership[i] {
		t.Fatalf("the published run did not split the cut unit at %d: level 0 labels %v", i, l0.Membership[i-1:i+3])
	}
}

// metricLine returns the value text of the /metrics sample whose name
// and labels are exactly series, or "" when it is absent.
func metricLine(t *testing.T, c *Client, series string) string {
	t.Helper()
	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return ""
}

// TestServeBoundsVertexGrowth: one batch may grow the graph by at most
// MaxBatch vertices. An insertion at the current vertex count n plus
// MaxBatch answers 400 and leaves the stream graph as it was; one at
// n+MaxBatch−1 publishes. The refused id comes first, so a server
// without the bound fails here before any request names a huge id.
func TestServeBoundsVertexGrowth(t *testing.T) {
	const maxBatch = 8
	cfg := testConfig()
	cfg.MaxBatch = maxBatch
	g, _ := gen.RoadNetwork(400, 3)
	_, c := startServerOn(t, g, cfg)
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(before.Vertices)
	refuse := func(v uint32) {
		t.Helper()
		prev, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.ApplyDelta([]EdgeUpdate{{U: 0, V: v, W: 1}}, nil)
		if err == nil || !strings.Contains(err.Error(), "status 400") {
			t.Fatalf("insertion at vertex %d (%d vertices, MaxBatch %d): error %v, want status 400", v, prev.Vertices, maxBatch, err)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Vertices != prev.Vertices || st.PendingInsertions != prev.PendingInsertions ||
			st.PendingDeletions != prev.PendingDeletions || st.Version != prev.Version {
			t.Fatalf("refused insertion at vertex %d changed the state: %+v -> %+v", v, prev, st)
		}
	}

	refuse(n + maxBatch)
	if _, err := c.ApplyDelta([]EdgeUpdate{{U: 0, V: n + maxBatch - 1, W: 1}}, nil); err != nil {
		t.Fatalf("insertion at vertex n+MaxBatch-1: %v", err)
	}
	st := waitVersion(t, c, before.Version+1)
	if st.Vertices != int(n)+maxBatch {
		t.Fatalf("published %d vertices, want %d", st.Vertices, int(n)+maxBatch)
	}
	refuse(4_000_000_000)
	refuse(1<<32 - 1)
	if got := metricLine(t, c, `gveserve_delta_batches_total{status="rejected"}`); got != "3" {
		t.Fatalf("rejected delta batches = %q, want 3", got)
	}

	// The refusals left the stream graph intact: a valid batch still
	// publishes.
	if _, err := c.ApplyDelta([]EdgeUpdate{{U: 1, V: n, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if st := waitVersion(t, c, before.Version+2); st.Vertices != int(n)+maxBatch {
		t.Fatalf("published %d vertices, want %d", st.Vertices, int(n)+maxBatch)
	}
}

// newestFlightRecord returns the newest /debug/flight record as its
// JSON object, once the flight recorder holds want records.
func newestFlightRecord(t *testing.T, s *Server, c *Client, want uint64) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.Telemetry().Flight().Total() < want {
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder holds %d records, want %d", s.Telemetry().Flight().Total(), want)
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(c.Base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Records []map[string]any `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) == 0 {
		t.Fatal("/debug/flight holds no record")
	}
	return dump.Records[len(dump.Records)-1]
}

// TestServeFlightRecordsStageTimes: a swap's flight record carries the
// times of the stages it got through — all four for a published swap,
// the snapshot and the run for a candidate the gate refused.
func TestServeFlightRecordsStageTimes(t *testing.T) {
	stages := []string{"snapshot_seconds", "run_seconds", "gate_seconds", "index_seconds"}
	t.Run("published", func(t *testing.T) {
		s, c := startServer(t, testConfig())
		driveSwaps(t, c, uint32(s.Snapshot().Graph.NumVertices()), 1)
		rec := newestFlightRecord(t, s, c, 2)
		for _, k := range stages {
			v, ok := rec[k].(float64)
			if !ok || v < 0 {
				t.Fatalf("%s = %v in %v", k, rec[k], rec)
			}
		}
		if rec["run_seconds"].(float64) > rec["wall_seconds"].(float64) {
			t.Fatalf("run_seconds %v exceeds wall_seconds %v", rec["run_seconds"], rec["wall_seconds"])
		}
	})
	t.Run("rejected", func(t *testing.T) {
		cfg := testConfig()
		cfg.MaxQualityDrop = -10 // candidate must beat prev by 10 — impossible
		s, c := startServer(t, cfg)
		if _, err := c.ApplyDelta([]EdgeUpdate{{U: 0, V: 999, W: 1}}, nil); err != nil {
			t.Fatal(err)
		}
		waitRejections(t, s, 1)
		rec := newestFlightRecord(t, s, c, 2)
		if check, _ := rec["check"].(string); !strings.HasPrefix(check, "failed: ") {
			t.Fatalf("newest record is not the rejection: %v", rec)
		}
		for _, k := range stages[:2] {
			if v, ok := rec[k].(float64); !ok || v < 0 {
				t.Fatalf("%s = %v in %v", k, rec[k], rec)
			}
		}
		if _, ok := rec["index_seconds"]; ok {
			t.Fatalf("a refused candidate records an index time: %v", rec)
		}
	})
}

// holdObserver, once armed, holds the run at its next pass event until
// released, then panics there if the arming asked for a failure.
type holdObserver struct {
	armed   atomic.Bool
	fail    bool
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

// arm holds the next run; the caller must not arm again before that
// run is released.
func (o *holdObserver) arm(fail bool) {
	o.fail, o.held, o.release, o.once = fail, make(chan struct{}), make(chan struct{}), sync.Once{}
	o.armed.Store(true)
}

// let releases the held run; later calls do nothing.
func (o *holdObserver) let() {
	if o.release != nil {
		o.once.Do(func() { close(o.release) })
	}
}

func (o *holdObserver) OnIteration(observe.IterEvent) {}

func (o *holdObserver) OnPass(observe.PassEvent) {
	if !o.armed.CompareAndSwap(true, false) {
		return
	}
	close(o.held)
	<-o.release
	if o.fail {
		panic("injected failure after the hold")
	}
}

// pendingAge reads gveserve_pending_age_seconds from /metrics.
func pendingAge(t *testing.T, c *Client) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(metricLine(t, c, "gveserve_pending_age_seconds"), 64)
	if err != nil {
		t.Fatalf("gveserve_pending_age_seconds: %v", err)
	}
	return v
}

// TestServePendingCountsTheBatchInFlight: a batch the recompute has
// taken stays pending until its snapshot is published. While the run
// is held, /stats counts the batch and the staleness gauge grows; after
// publication both read 0. A rejected batch goes back to the queue
// with its original ingest time, so its age keeps counting from there.
func TestServePendingCountsTheBatchInFlight(t *testing.T) {
	obs := &holdObserver{}
	cfg := testConfig()
	cfg.Options.Observer = obs
	s, c := startServer(t, cfg)
	t.Cleanup(obs.let) // a failed check must not leave the run held for Close
	if age := pendingAge(t, c); age != 0 {
		t.Fatalf("age %g with nothing ingested", age)
	}

	obs.arm(false)
	if _, err := c.ApplyDelta([]EdgeUpdate{{U: 0, V: 999, W: 1}, {U: 1, V: 998, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	<-obs.held
	time.Sleep(30 * time.Millisecond)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 || st.PendingInsertions != 2 || st.PendingDeletions != 0 {
		t.Fatalf("while the run is held: %+v", st)
	}
	if age := pendingAge(t, c); age < 0.03 {
		t.Fatalf("age %g while the run is held, want ≥ 0.03", age)
	}
	obs.let()
	waitVersion(t, c, 2)
	if st, err = c.Stats(); err != nil {
		t.Fatal(err)
	}
	if st.PendingInsertions != 0 || st.PendingDeletions != 0 {
		t.Fatalf("after publication: %+v", st)
	}
	if age := pendingAge(t, c); age != 0 {
		t.Fatalf("age %g after publication", age)
	}

	obs.arm(true)
	if _, err := c.ApplyDelta(nil, []EdgeUpdate{{U: 0, V: 999}}); err != nil {
		t.Fatal(err)
	}
	<-obs.held
	time.Sleep(100 * time.Millisecond)
	obs.let()
	waitRejections(t, s, 1)
	if st, err = c.Stats(); err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.PendingInsertions != 0 || st.PendingDeletions != 1 {
		t.Fatalf("after the rejection: %+v", st)
	}
	if age := pendingAge(t, c); age < 0.1 {
		t.Fatalf("age %g after the rejection, want ≥ 0.1 (counted from the ingest)", age)
	}
}

// TestServeGateRejectsOnItsPool: the gate runs its checks on the
// server's pool and refuses a candidate with an asymmetric arc, one
// with a disconnected community, and one with non-dense labels; each
// for the invariant it breaks.
func TestServeGateRejectsOnItsPool(t *testing.T) {
	pool := parallel.NewPool(2)
	t.Cleanup(pool.Close) // after the server's own cleanup
	cfg := testConfig()
	cfg.Options.Pool = pool
	s, _ := startServer(t, cfg)
	snap := s.Snapshot()
	g, n := snap.Graph, snap.Graph.NumVertices()
	candidate := func(membership []uint32) *core.Result {
		k := slices.Max(membership) + 1
		return &core.Result{Membership: membership, NumCommunities: int(k), Modularity: snap.Result.Modularity}
	}

	asym := g.Clone()
	asym.Weights[len(asym.Weights)-1] += 1
	// Two non-adjacent vertices under one label, everything else alone.
	apart := make([]uint32, n)
	for v := range apart {
		apart[v] = uint32(v)
	}
	far := uint32(n - 1)
	for g.HasArc(0, far) {
		far--
	}
	apart[far] = 0
	for v := far + 1; v < uint32(n); v++ {
		apart[v]-- // keep the labels dense
	}
	gaps := slices.Clone(snap.Result.Membership)
	for v := range gaps {
		if gaps[v] > 0 {
			gaps[v]++ // label 1 unused
		}
	}

	for _, tc := range []struct {
		name      string
		g         *graph.CSR
		res       *core.Result
		invariant string
	}{
		{"asymmetric arc", asym, snap.Result, "csr-wellformed: graph: asymmetric arcs"},
		{"disconnected community", g, candidate(apart), "connectivity: 1 of"},
		{"non-dense labels", g, candidate(gaps), "partition-validity: labels not dense"},
	} {
		before := pool.Counters().Regions
		_, _, err := s.gate(tc.g, stream.Merge{}, tc.res, snap)
		if err == nil || !strings.Contains(err.Error(), tc.invariant) {
			t.Fatalf("%s: gate error %v, want %q", tc.name, err, tc.invariant)
		}
		if pool.Counters().Regions == before {
			t.Fatalf("%s: the gate ran no region on the server's pool", tc.name)
		}
	}
}

// TestServeGateSkipsConnectivityOnMalformedGraph: a candidate graph
// with an arc target past the vertex count gets the csr-wellformed
// violation. The connectivity search, which would index the labels by
// that target, does not run on a graph the CSR check rejected.
func TestServeGateSkipsConnectivityOnMalformedGraph(t *testing.T) {
	s, _ := startServer(t, testConfig())
	snap := s.Snapshot()
	bad := snap.Graph.Clone()
	bad.Edges[0] = uint32(bad.NumVertices() + 5)
	_, _, err := s.gate(bad, stream.Merge{}, snap.Result, snap)
	if err == nil || !strings.Contains(err.Error(), "csr-wellformed") {
		t.Fatalf("gate error %v, want a csr-wellformed violation", err)
	}
	if strings.Contains(err.Error(), "connectivity") {
		t.Fatalf("gate checked connectivity on a malformed graph: %v", err)
	}
}

// TestSnapshotMembersAreCapacityCapped: a caller appending to one
// community's members cannot write into the next community's.
func TestSnapshotMembersAreCapacityCapped(t *testing.T) {
	s, _ := startServer(t, testConfig())
	snap := s.Snapshot()
	if snap.Result.NumCommunities < 2 {
		t.Fatal("need two communities")
	}
	next, _ := snap.Members(1)
	want := slices.Clone(next)
	first, _ := snap.Members(0)
	_ = append(first, ^uint32(0))
	if got, _ := snap.Members(1); !slices.Equal(got, want) {
		t.Fatalf("community 1 changed after an append to community 0: %v, want %v", got, want)
	}
}

// syncBuffer is a bytes.Buffer a logger and a test can share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines returns the JSON log records with the given message.
func (b *syncBuffer) lines(t *testing.T, msg string) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] == msg {
			out = append(out, rec)
		}
	}
	return out
}

// flightRecords returns the flight records once the recorder holds
// want of them.
func flightRecords(t *testing.T, s *Server, want uint64) []observe.RunRecord {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.Telemetry().Flight().Total() < want {
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder holds %d records, want %d", s.Telemetry().Flight().Total(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return s.Telemetry().Flight().Records()
}

// TestServeFlightRecordsSwapKind: every flight record and every
// "snapshot published" log line says whether the swap's run resumed
// from the published dendrogram and how the gate checked its graph.
// The first snapshot has no gated graph to induct from and gets the
// full check. Over the next four swaps two runs in three resume: the
// kinds go resumed, resumed, full, resumed, and every merge read the
// published graph, so every graph is checked by induction. The graph
// is a k-mer graph, on which the full run gains far less modularity
// than would make the run after it refine from singletons too.
func TestServeFlightRecordsSwapKind(t *testing.T) {
	var log syncBuffer
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&log, nil))
	g, _ := gen.KmerGraph(2000, 7)
	s, c := startServerOn(t, g, cfg)
	driveSwaps(t, c, uint32(s.Snapshot().Graph.NumVertices()), 4)
	recs := flightRecords(t, s, 5)
	published := log.lines(t, "snapshot published")
	if len(recs) != 5 || len(published) != 5 {
		t.Fatalf("%d flight records and %d published logs, want 5 of each", len(recs), len(published))
	}
	for i, r := range recs {
		wantCheck, wantResumed := csrInductive, i%3 != 0
		if i == 0 {
			wantCheck = csrFull
		}
		if r.CSRCheck != wantCheck || r.Resumed != wantResumed || r.Check != "passed" {
			t.Fatalf("swap %d: csr_check %q, resumed %v, check %q; want %q, %v, passed", i, r.CSRCheck, r.Resumed, r.Check, wantCheck, wantResumed)
		}
		if l := published[i]; l["csr_check"] != wantCheck || l["resumed"] != wantResumed {
			t.Fatalf("swap %d: logged %v, want csr_check %q and resumed %v", i, l, wantCheck, wantResumed)
		}
	}
	if rec := newestFlightRecord(t, s, c, 5); rec["csr_check"] != csrInductive || rec["resumed"] != true {
		t.Fatalf("/debug/flight newest record %v", rec)
	}
}

// TestServeFullCheckAfterRejection: the stream keeps a refused
// candidate's merge as its base, so the next candidate's merge did not
// read the published graph. Its graph gets the full check; the swap
// after it, whose merge read the graph that check passed, is checked by
// induction again. The refused run panicked before the gate, so its
// record names no CSR check and no resumed run. A refused candidate
// publishes no dendrogram, so it does not advance the cycle of resumed
// runs: after one resumed swap and the refusal, the next swap resumes
// from the same snapshot, as the second resumed run of the cycle, and
// the one after it refines from singletons.
func TestServeFullCheckAfterRejection(t *testing.T) {
	obs := &panickyObserver{}
	cfg := testConfig()
	cfg.Options.Observer = obs
	s, c := startServer(t, cfg)
	n0 := uint32(s.Snapshot().Graph.NumVertices())
	driveSwaps(t, c, n0, 1)
	obs.armed.Store(true)
	if _, err := c.ApplyDelta([]EdgeUpdate{{U: 0, V: 999, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	waitRejections(t, s, 1)
	obs.armed.Store(false)
	s.Kick()
	waitVersion(t, c, 3)
	driveSwaps(t, c, n0+1, 1)
	recs := flightRecords(t, s, 5)
	for i, want := range []struct {
		check, csr string
		resumed    bool
	}{
		{"passed", csrFull, false},
		{"passed", csrInductive, true},
		{"panic: injected observer panic", "", false},
		{"passed", csrFull, true},
		{"passed", csrInductive, false},
	} {
		if r := recs[i]; r.Check != want.check || r.CSRCheck != want.csr || r.Resumed != want.resumed {
			t.Fatalf("record %d: check %q, csr_check %q, resumed %v; want %q, %q, %v", i, r.Check, r.CSRCheck, r.Resumed, want.check, want.csr, want.resumed)
		}
	}
}

// TestServeGateChecksMergeByInduction: a candidate graph merged from
// the published one is checked by induction from it. An intact merge
// passes. The same merge with one low weight bit flipped in a row it
// copied, which the full check's 1e-3 symmetry tolerance lets through,
// is rejected as csr-wellformed. A holey copy of the merge, and a merge
// of a graph the gate never passed, get the full check.
func TestServeGateChecksMergeByInduction(t *testing.T) {
	s, _ := startServer(t, testConfig())
	snap := s.Snapshot()
	g, n := snap.Graph, snap.Graph.NumVertices()
	// A new edge inside vertex 0's community keeps every community
	// connected.
	c0, _ := snap.Community(0)
	members, _ := snap.Members(c0)
	v := members[slices.IndexFunc(members, func(v uint32) bool { return v != 0 && !g.HasArc(0, v) })]
	states := map[uint64]graph.DeltaState{graph.PairKey(0, v): {Present: true, W: 1}}
	merged := graph.MergeDelta(g, n, states)
	from := stream.Merge{Base: g, States: states}

	flipped := merged.Clone()
	u := uint32(n - 1)
	for u == v || merged.Degree(u) == 0 {
		u--
	}
	at := flipped.Offsets[u]
	flipped.Weights[at] = math.Float32frombits(math.Float32bits(flipped.Weights[at]) ^ 1)
	var full oracle.Report
	if oracle.CheckCSR(&full, flipped); !full.Ok() {
		t.Fatalf("the full check rejected a flipped low bit: %v", full.Err())
	}
	holey := merged.Clone()
	holey.Counts = make([]uint32, n)
	for w := range holey.Counts {
		holey.Counts[w] = merged.Degree(uint32(w))
	}
	for _, tc := range []struct {
		name  string
		g     *graph.CSR
		from  stream.Merge
		check string
		ok    bool
	}{
		{"intact merge", merged, from, csrInductive, true},
		{"flipped weight bit", flipped, from, csrInductive, false},
		{"holey graph", holey, from, csrFull, true},
		{"unverified base", merged, stream.Merge{Base: g.Clone(), States: states}, csrFull, true},
	} {
		_, check, err := s.gate(tc.g, tc.from, snap.Result, snap)
		if check != tc.check {
			t.Fatalf("%s: the gate ran the %q check, want %q", tc.name, check, tc.check)
		}
		if tc.ok && err != nil {
			t.Fatalf("%s: gate error %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "csr-wellformed")) {
			t.Fatalf("%s: gate error %v, want a csr-wellformed violation", tc.name, err)
		}
	}
}
