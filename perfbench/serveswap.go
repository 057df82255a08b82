package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/observe"
	"gveleiden/internal/oracle"
	"gveleiden/internal/parallel"
	"gveleiden/internal/serve"
	"gveleiden/internal/stream"
)

const (
	serveSetupReps = 3
	// replayBatches bounds the traced run's out-of-server replay.
	replayBatches = 20
	// pollEvery is how often the writer checks for a new snapshot.
	pollEvery = 250 * time.Microsecond
)

// serveState is one started server with the inputs it was set up from.
type serveState struct {
	g0       *graph.CSR
	batches  []batch
	pool     *parallel.Pool
	srv      *serve.Server
	base     string
	stopHTTP func() error
}

// startServe is serve-swap's set-up: generate the graph and the
// delta sequence, start the server (initial cold snapshot through the
// oracle gate) on its own 2-thread pool, and listen on loopback.
func startServe(seed uint64) (*serveState, error) {
	gp := parallel.NewPool(threads)
	g0, err := generate(serveClass, serveN, seed, gp)
	gp.Close()
	if err != nil {
		return nil, err
	}
	bs, err := deltaSequence(g0, seed, deltaBatches)
	if err != nil {
		return nil, err
	}
	st := &serveState{g0: g0, batches: bs, pool: parallel.NewPool(threads)}
	cfg := serve.DefaultConfig()
	cfg.Options.Threads = threads
	cfg.Options.Pool = st.pool
	if st.srv, err = serve.New(g0, cfg); err != nil {
		st.pool.Close()
		return nil, err
	}
	if st.base, st.stopHTTP, err = startHTTP(st.srv.Handler()); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *serveState) close() {
	if st.stopHTTP != nil {
		if err := st.stopHTTP(); err != nil {
			logf("stopping the listener: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := st.srv.Close(ctx); err != nil {
		logf("closing the server: %v", err)
	}
	st.pool.Close()
}

// swapResult is one closed-loop swap: POST /delta, then wait for the
// next snapshot.
type swapResult struct {
	swapS, ingestS, modularity float64
	peakMB                     float64 // resident high-water mark from the POST to the new snapshot
	err                        error

	// traced swaps only
	recomputeS, wallS float64
	counters          parallel.CounterSnapshot
}

func runServeSwap(cfg runConfig) (*runOutput, error) {
	var setup []float64
	var st *serveState
	var fpGraph, fpDelta string
	for rep := 0; rep < serveSetupReps; rep++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		s, err := startServe(cfg.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		st = s
		fg, fd := graphFingerprint(s.g0), deltaFingerprint(s.batches)
		if rep > 0 && (fg != fpGraph || fd != fpDelta) {
			st.close()
			return nil, fmt.Errorf("set-up %d generated inputs %s/%s, set-up 0 %s/%s", rep, fg, fd, fpGraph, fpDelta)
		}
		fpGraph, fpDelta = fg, fd
	}
	defer st.close()
	if err := checkFingerprints("serve-swap", cfg.seed, map[string]string{"graph": fpGraph, "deltas": fpDelta}); err != nil {
		return nil, err
	}

	srv, bs := st.srv, st.batches
	writer := newClient()
	defer writer.CloseIdleConnections()
	out := &runOutput{record: map[string]any{
		"vertices": st.g0.NumVertices(), "arcs": st.g0.NumArcs(),
		"fingerprint_graph": fpGraph, "fingerprint_deltas": fpDelta,
		"setup_s_samples": setup,
	}}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	sc := &swapClient{st: st, http: writer}

	warm := sc.swap(bs[0], nil)
	out.attempted++
	if warm.err != nil {
		out.failed++
		logf("warm-up swap: %v", warm.err)
	}

	dropSetup()
	gc0 := readGC()
	rej0 := srv.Rejections()
	scrape0, err := scrapeMetrics(writer, st.base)
	if err != nil {
		return nil, err
	}
	rd := &serveReader{srv: srv, rng: rand.New(rand.NewPCG(cfg.seed, 2)), n0: st.g0.NumVertices()}
	ctx, cancel := context.WithCancel(context.Background())
	var reads readStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = openLoopReader(ctx, st.base, rd.next, rd.check, rec)
	}()
	var swaps, plain []swapResult
	applied := 1
	deadline := time.Now().Add(cfg.seconds)
	for b := 1; b < len(bs) && time.Now().Before(deadline); b++ {
		r := rec
		if b%2 == 0 {
			r = nil
		}
		res := sc.swap(bs[b], r)
		// As between cold ops: every swap starts from a collected heap.
		runtime.GC()
		applied++
		out.attempted++
		if res.err != nil {
			out.failed++
			logf("swap %d: %v", b, res.err)
		}
		if res.swapS == 0 {
			continue
		}
		if cfg.trace && r == nil {
			plain = append(plain, res)
		} else {
			swaps = append(swaps, res)
		}
	}
	cancel()
	wg.Wait()
	gc1 := readGC()
	scrape1, err := scrapeMetrics(writer, st.base)
	if err != nil {
		return nil, err
	}
	out.attempted += len(reads.latMS)
	out.failed += reads.failed
	if applied == len(bs) {
		logf("all %d pre-generated batches were used before the timed phase ended", len(bs))
	}

	// The served graph must be the replayed one.
	out.attempted++
	if err := sc.checkStats(bs[applied-1]); err != nil {
		out.failed++
		logf("final /stats: %v", err)
	}
	if n := srv.Rejections() - rej0; n != 0 {
		out.failed += int(n)
		logf("the oracle gate rejected %d candidates", n)
	}
	if len(swaps) == 0 {
		return nil, fmt.Errorf("no swap completed")
	}

	pick := func(f func(swapResult) float64) float64 { return median(values(swaps, f)) }
	swapOf := func(s swapResult) float64 { return s.swapS }
	swapS := pick(swapOf)
	out.record["swaps"] = len(swaps)
	out.record["op_s_samples"] = values(swaps, swapOf)
	out.record["reads"] = len(reads.latMS)
	out.record["stale_member_ids"] = rd.stale
	out.record["rss_reset"] = resetPeakRSS()
	out.record["loadgen_late_p99_ms"] = lateness(reads.lateMS)
	out.e2e = map[string]float64{
		"op_s":        swapS,
		"modularity":  pick(func(s swapResult) float64 { return s.modularity }),
		"peak_rss_mb": pick(func(s swapResult) float64 { return s.peakMB }),
		"setup_s":     median(setup),
	}
	if !cfg.trace {
		return out, nil
	}

	l := zeroLayers()
	rp, err := replay(st.g0, bs[:min(applied, replayBatches)])
	if err != nil {
		out.failed++
		logf("replay: %v", err)
	}
	out.attempted++
	for k, v := range rp {
		l[k] = v
	}
	recompute := pick(func(s swapResult) float64 { return s.recomputeS })
	ingest := pick(func(s swapResult) float64 { return s.ingestS })
	post := pick(func(s swapResult) float64 { return s.wallS - s.recomputeS })
	l["serve.ingest_ms"] = ingest * 1e3
	l["serve.recompute_s"] = recompute
	l["serve.post_run_s"] = post
	l["serve.pre_run_s"] = pick(func(s swapResult) float64 { return s.swapS - s.ingestS - s.wallS })
	l["serve.handler_us"] = readHandlerSeconds(scrape0, scrape1) * 1e6
	l["serve.rejections"] = float64(srv.Rejections() - rej0)
	addPoolLayers(l, func(f func(parallel.CounterSnapshot) float64) float64 {
		return pick(func(s swapResult) float64 { return f(s.counters) })
	})
	l["gc.cycles"] = float64(gc1.cycles - gc0.cycles)
	l["gc.pause_ms"] = (gc1.pauseSec - gc0.pauseSec) * 1e3
	p99, ok := percentile(reads.latMS, 0.99, 10)
	if !ok {
		return nil, fmt.Errorf("%d reads are too few for a p99 with ten beyond it", len(reads.latMS))
	}
	l["loadgen.read_p99_ms"] = p99
	l["loadgen.read_p50_ms"], _ = percentile(reads.latMS, 0.50, 10)
	l["loadgen.late_ms"] = lateness(reads.lateMS)
	l["loadgen.ops"] = float64(len(swaps))
	l["loadgen.swaps"] = float64(len(swaps))
	l["loadgen.reads"] = float64(len(reads.latMS))
	// Named parts of a swap: the ingest round trip, the stream snapshot
	// build (measured in the replay), the warm run, and gate + index +
	// publish. What remains is worker wake-up, polling and HTTP.
	named := ingest + l["stream.snapshot_s"] + recompute + post
	l["trace.covered_share"] = named / swapS
	l["trace.uncovered_s"] = swapS - named
	if len(plain) > 0 {
		l["trace.overhead_share"] = swapS/median(values(plain, swapOf)) - 1
	}
	out.layer = l
	out.spans = rec
	out.record["untraced_swaps"] = len(plain)
	out.record["replayed_batches"] = min(applied, replayBatches)
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"serve.ingest", ingest},
		{"stream.snapshot (replay)", l["stream.snapshot_s"]},
		{"serve.recompute (core warm run)", recompute},
		{"serve.post_run (gate+index+publish)", post},
		{"uncovered (wake, poll, HTTP)", l["trace.uncovered_s"]},
	} {
		out.breakdown = append(out.breakdown, layerShare{Layer: row.name, SelfS: row.v, Share: row.v / swapS})
	}
	return out, nil
}

// swapClient is the closed-loop writer: one keep-alive connection, one
// batch in flight.
type swapClient struct {
	st            *serveState
	http          *http.Client
	lastVersion   uint64
	lastRecompute float64 // gveserve_recompute_seconds sum at the last traced swap
}

// swap sends one batch and waits until the server publishes the next
// snapshot, polling the published version at pollEvery. A traced swap
// (rec non-nil) also reads the server's flight record and recompute
// histogram afterwards, outside the timed interval.
func (c *swapClient) swap(b batch, rec *recorder) (res swapResult) {
	traced := rec != nil
	srv := c.st.srv
	v0, rej0 := srv.Snapshot().Version, srv.Rejections()
	var c0 parallel.CounterSnapshot
	if traced {
		c0 = c.st.pool.Counters()
		m, err := scrapeMetrics(c.http, c.st.base)
		if err != nil {
			res.err = err
			return res
		}
		c.lastRecompute = m.recomputeSum
	}
	root := rec.begin("swap", 0, 0)
	id := rec.opOf(root)
	resetPeakRSS()
	start := time.Now()
	s := rec.begin("serve.ingest", root, id)
	dr, err := c.post(b)
	rec.end(s, nil)
	ingested := time.Now()
	if err != nil {
		rec.end(root, nil)
		res.err = err
		return res
	}
	s = rec.begin("serve.wait", root, id)
	for srv.Snapshot().Version == v0 {
		if srv.Rejections() != rej0 {
			res.err = fmt.Errorf("the oracle gate rejected the candidate")
			break
		}
		if time.Since(start) > time.Minute {
			res.err = fmt.Errorf("no snapshot published within a minute")
			break
		}
		time.Sleep(pollEvery)
	}
	rec.end(s, nil)
	end := time.Now()
	res.peakMB = peakRSSMB()
	snap := srv.Snapshot()
	res.swapS, res.ingestS = end.Sub(start).Seconds(), ingested.Sub(start).Seconds()
	res.modularity = snap.Result.Modularity
	rec.end(root, map[string]float64{"swap_s": res.swapS, "version": float64(snap.Version)})
	switch {
	case res.err != nil:
	case dr.Insertions != len(b.ins) || dr.Deletions != len(b.del) || !dr.Accepted:
		res.err = fmt.Errorf("delta acknowledged as %+v", dr)
	case snap.Version != v0+1:
		res.err = fmt.Errorf("version %d after one batch on %d", snap.Version, v0)
	}
	if !traced || res.err != nil {
		return res
	}
	res.counters = c.st.pool.Counters().Sub(c0)
	m, err := scrapeMetrics(c.http, c.st.base)
	if err != nil {
		res.err = err
		return res
	}
	res.recomputeS = m.recomputeSum - c.lastRecompute
	last, err := c.lastFlight()
	if err != nil {
		res.err = err
		return res
	}
	res.wallS = last.WallSeconds
	rec.annotate(root, map[string]float64{
		"recompute_s":   res.recomputeS,
		"flight_wall_s": res.wallS,
		"regions":       float64(res.counters.Regions),
		"steals":        float64(res.counters.Steals),
	})
	return res
}

func (c *swapClient) post(b batch) (serve.DeltaResponse, error) {
	var dr serve.DeltaResponse
	resp, err := c.http.Post(c.st.base+"/delta", "application/json", bytes.NewReader(b.body))
	if err != nil {
		return dr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return dr, fmt.Errorf("POST /delta: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return dr, fmt.Errorf("POST /delta: %w", err)
	}
	if dr.Version < c.lastVersion {
		return dr, fmt.Errorf("POST /delta answered version %d after %d", dr.Version, c.lastVersion)
	}
	c.lastVersion = dr.Version
	return dr, nil
}

// lastFlight returns the newest record of /debug/flight.
func (c *swapClient) lastFlight() (observe.RunRecord, error) {
	var dump struct {
		Records []observe.RunRecord `json:"records"`
	}
	if err := getJSON(c.http, c.st.base+"/debug/flight", &dump); err != nil {
		return observe.RunRecord{}, err
	}
	var last observe.RunRecord
	for _, r := range dump.Records {
		if r.Seq >= last.Seq {
			last = r
		}
	}
	if last.Algorithm != "serve-recompute" {
		return last, fmt.Errorf("newest flight record is %q", last.Algorithm)
	}
	return last, nil
}

// checkStats compares /stats with the graph the applied batches lead
// to.
func (c *swapClient) checkStats(last batch) error {
	var st serve.StatsResponse
	if err := getJSON(c.http, c.st.base+"/stats", &st); err != nil {
		return err
	}
	if st.Vertices != last.vertices || st.Edges != last.edges {
		return fmt.Errorf("serving %d vertices / %d edges, the applied batches give %d / %d",
			st.Vertices, st.Edges, last.vertices, last.edges)
	}
	if st.Version < c.lastVersion {
		return fmt.Errorf("/stats version %d after %d", st.Version, c.lastVersion)
	}
	return nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// serverMetrics is the part of /metrics.json the benchmark reads.
type serverMetrics struct {
	recomputeSum float64
	readSum      float64 // in-handler seconds of the read endpoints
	readCount    uint64
}

func scrapeMetrics(c *http.Client, base string) (serverMetrics, error) {
	var ms []observe.Metric
	var out serverMetrics
	if err := getJSON(c, base+"/metrics.json", &ms); err != nil {
		return out, err
	}
	for _, m := range ms {
		switch m.Name {
		case "gveserve_recompute_seconds":
			out.recomputeSum = m.Sum
		case "gveserve_request_seconds":
			for _, l := range m.Labels {
				switch {
				case l.Name != "endpoint":
				case l.Value == "community", l.Value == "members", l.Value == "neighbors", l.Value == "hierarchy":
					out.readSum += m.Sum
					out.readCount += m.Count
				}
			}
		}
	}
	return out, nil
}

// readHandlerSeconds is the mean in-handler time of the reads between
// two scrapes.
func readHandlerSeconds(a, b serverMetrics) float64 {
	return ratio(b.readSum-a.readSum, float64(b.readCount-a.readCount))
}

// serveReader is serve-swap's read mix: /community, /neighbors,
// /hierarchy and /members?limit=100 in turn, on seeded vertices, with
// community ids taken from earlier answers.
type serveReader struct {
	srv *serve.Server
	rng *rand.Rand
	n0  int

	maxVersion  uint64
	comm        uint32
	commVersion uint64
	haveComm    bool
	stale       int // /members ids a newer snapshot no longer has
}

func (r *serveReader) next(i int) string {
	v := r.rng.IntN(r.n0)
	switch i % 4 {
	case 1:
		return fmt.Sprintf("/neighbors?v=%d", v)
	case 2:
		return fmt.Sprintf("/hierarchy?v=%d", v)
	case 3:
		if r.haveComm {
			return fmt.Sprintf("/members?c=%d&limit=100", r.comm)
		}
	}
	return fmt.Sprintf("/community?v=%d", v)
}

func (r *serveReader) check(res readResult) error {
	members := strings.HasPrefix(res.path, "/members")
	if members && res.status == http.StatusNotFound && r.srv.Snapshot().Version > r.commVersion {
		r.stale++ // the id came from an older snapshot: a correct answer
		return nil
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", res.status, bytes.TrimSpace(res.body))
	}
	var version uint64
	switch {
	case strings.HasPrefix(res.path, "/community"):
		var a serve.CommunityResponse
		if err := json.Unmarshal(res.body, &a); err != nil {
			return err
		}
		if a.Size < 1 {
			return fmt.Errorf("community %d of vertex %d has size %d", a.Community, a.Vertex, a.Size)
		}
		version = a.Version
		r.remember(a.Community, a.Version)
	case strings.HasPrefix(res.path, "/neighbors"):
		var a serve.NeighborsResponse
		if err := json.Unmarshal(res.body, &a); err != nil {
			return err
		}
		if len(a.Neighbors) > a.Degree {
			return fmt.Errorf("%d intra-community neighbours of a degree-%d vertex", len(a.Neighbors), a.Degree)
		}
		version = a.Version
		r.remember(a.Community, a.Version)
	case strings.HasPrefix(res.path, "/hierarchy"):
		var a serve.HierarchyResponse
		if err := json.Unmarshal(res.body, &a); err != nil {
			return err
		}
		if len(a.Levels) != a.Depth {
			return fmt.Errorf("%d levels at depth %d", len(a.Levels), a.Depth)
		}
		version = a.Version
		r.remember(a.Final, a.Version)
	case members:
		var a serve.MembersResponse
		if err := json.Unmarshal(res.body, &a); err != nil {
			return err
		}
		if len(a.Members) > 100 || len(a.Members) > a.Size || len(a.Members) == 0 {
			return fmt.Errorf("%d members listed of %d", len(a.Members), a.Size)
		}
		version = a.Version
	default:
		return errors.New("unexpected path")
	}
	if version < r.maxVersion {
		return fmt.Errorf("version %d after %d", version, r.maxVersion)
	}
	r.maxVersion = version
	return nil
}

func (r *serveReader) remember(c uint32, version uint64) {
	r.comm, r.commVersion, r.haveComm = c, version, true
}

// replay runs batches outside the server, one public call at a time:
// the stream graph's Apply and Snapshot, the CSR delta path, the warm
// dynamic run and the gate's three oracle checks. It returns the median
// of each per-batch time and counter, and an error if the two delta
// paths disagree or a check fails.
func replay(g0 *graph.CSR, bs []batch) (map[string]float64, error) {
	pool := parallel.NewPool(threads)
	defer pool.Close()
	cfg := serve.DefaultConfig()
	opt := cfg.Options
	opt.Threads, opt.Pool = threads, pool
	prev, _ := core.LeidenHierarchy(g0, opt)
	membership := prev.Membership
	sg := stream.FromCSR(g0)
	cur := g0
	samples := map[string][]float64{}
	add := func(k string, since time.Time) { samples[k] = append(samples[k], time.Since(since).Seconds()) }
	var speedup float64
	for i, b := range bs {
		t := time.Now()
		if err := sg.Apply(b.ins, b.del); err != nil {
			return nil, fmt.Errorf("batch %d: stream apply: %w", i, err)
		}
		add("stream.apply_s", t)
		t = time.Now()
		g := sg.Snapshot()
		add("stream.snapshot_s", t)
		t = time.Now()
		next, err := graph.ApplyDelta(cur, b.ins, b.del)
		if err != nil {
			return nil, fmt.Errorf("batch %d: graph.ApplyDelta: %w", i, err)
		}
		add("graph.apply_delta_s", t)
		if !sameCSR(g, next) {
			return nil, fmt.Errorf("batch %d: stream snapshot and graph.ApplyDelta disagree", i)
		}
		cur = next
		delta := core.Delta{Insertions: b.ins, Deletions: b.del}
		t = time.Now()
		res, _ := core.LeidenDynamicHierarchy(g, membership, delta, cfg.Mode, opt)
		warm := time.Since(t).Seconds()
		samples["core.warm_run_s"] = append(samples["core.warm_run_s"], warm)
		samples["core.warm_passes"] = append(samples["core.warm_passes"], float64(res.Passes))
		samples["core.warm_iterations"] = append(samples["core.warm_iterations"], float64(res.Stats.TotalIterations()))
		samples["core.warm_moves"] = append(samples["core.warm_moves"], float64(res.Stats.TotalMoves()))
		if i == 0 {
			p1 := parallel.NewPool(1)
			o1 := opt
			o1.Threads, o1.Pool = 1, p1
			t = time.Now()
			core.LeidenDynamicHierarchy(g, membership, delta, cfg.Mode, o1)
			speedup = time.Since(t).Seconds() / warm
			p1.Close()
		}
		r := &oracle.Report{}
		t = time.Now()
		oracle.CheckCSR(r, g)
		add("oracle.check_csr_s", t)
		t = time.Now()
		oracle.CheckPartition(r, g, res.Membership, true)
		add("oracle.check_partition_s", t)
		t = time.Now()
		oracle.CheckConnected(r, g, res.Membership, threads)
		add("oracle.check_connected_s", t)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		membership = res.Membership
	}
	out := map[string]float64{"parallel.speedup": speedup}
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out, nil
}

func sameCSR(a, b *graph.CSR) bool {
	a, b = a.Compact(), b.Compact()
	if len(a.Offsets) != len(b.Offsets) {
		return false
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	m := a.Offsets[len(a.Offsets)-1]
	for i := uint32(0); i < m; i++ {
		if a.Edges[i] != b.Edges[i] || a.Weights[i] != b.Weights[i] {
			return false
		}
	}
	return true
}
