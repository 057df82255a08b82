package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	"gveleiden/internal/parallel"
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
	if _, err := s.gate(g, res, s.Snapshot()); err == nil {
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

// TestServeSwapStageMetrics: every stage histogram counts each
// published swap once, initial build included, and the run, gate and
// index stages fit inside the flight records' wall time.
func TestServeSwapStageMetrics(t *testing.T) {
	s, c := startServer(t, testConfig())
	driveSwaps(t, c, uint32(s.Snapshot().Graph.NumVertices()), 3)
	// The flight record is written last in a swap: once all are in,
	// every stage of every swap has been observed.
	deadline := time.Now().Add(30 * time.Second)
	for s.Telemetry().Flight().Total() < uint64(s.Recomputes()) {
		if time.Now().After(deadline) {
			t.Fatal("flight records lag the published swaps")
		}
		time.Sleep(time.Millisecond)
	}
	var wall float64
	for _, r := range s.Telemetry().Flight().Records() {
		wall += r.WallSeconds
	}
	sums := map[string]float64{}
	for _, m := range s.gatherMetrics().Metrics() {
		if m.Name != "gveserve_swap_stage_seconds" {
			continue
		}
		stage := m.Labels[0].Value
		if m.Count != uint64(s.Recomputes()) {
			t.Fatalf("stage %s counted %d swaps, %d published", stage, m.Count, s.Recomputes())
		}
		sums[stage] = m.Sum
	}
	if len(sums) != len(stageNames) {
		t.Fatalf("stages exported: %v", sums)
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
			want, _ := core.LeidenDynamicHierarchy(v2.Graph, v1.Result.Membership,
				core.Delta{Insertions: []graph.Edge{{U: 0, V: 999, W: 1}}}, cfg.Mode, opt)
			if !slices.Equal(v2.Result.Membership, want.Membership) {
				t.Fatal("the run after the recovered panic published a different membership than a run on another pool")
			}
		})
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
		_, err := s.gate(tc.g, tc.res, snap)
		if err == nil || !strings.Contains(err.Error(), tc.invariant) {
			t.Fatalf("%s: gate error %v, want %q", tc.name, err, tc.invariant)
		}
		if pool.Counters().Regions == before {
			t.Fatalf("%s: the gate ran no region on the server's pool", tc.name)
		}
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
