package core

import (
	"sync/atomic"

	"gveleiden/internal/graph"
	"gveleiden/internal/hashtable"
	"gveleiden/internal/parallel"
	"gveleiden/internal/prng"
)

// arena holds the storage for one aggregated graph. Two arenas
// ping-pong across passes: pass p reads the graph in one arena and
// writes the super-vertex graph into the other. An arena's buffers are
// allocated at its first aggregation, sized for the graph that
// aggregation writes (the paper's preallocated CSR); levels only shrink
// from then on, so later passes reslice them.
type arena struct {
	offsets []uint32  // super-vertex CSR offsets (holey capacity bounds)
	counts  []uint32  // per-super-vertex arc counts
	edges   []uint32  // arc targets
	weights []float32 // arc weights
}

// reserve returns s resliced to length n, reallocating only when its
// capacity falls short: a buffer sized by the level that first needs it
// serves every smaller level after it.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// workspace carries the buffers of a run. The ones indexed by input
// vertex are allocated up front; the dense tables, the member CSR and
// the arenas are sized by the level that first needs them.
type workspace struct {
	opt    Options
	n0     int                      // input vertex count
	m      float64                  // half the total edge weight (constant across passes)
	tables []*hashtable.Accumulator // per-thread dense tables, allocated on first need (see table)
	flats  []hashtable.Flat         // per-thread flat scan accumulators (low-degree fast path)
	rngs   []*prng.Xorshift32
	top    []uint32 // C: top-level membership over input vertices
	k      []float64
	sigma  *parallel.Float64s
	sizes  *sizeState // CPM's vertex and community sizes; nil under modularity
	comm   []uint32   // C'
	bounds []uint32   // C'_B
	initC  []uint32   // initial communities of the next pass's vertices
	// scratch serves renumbering's existence flags, aggregation's
	// placement cursors and moveLabels' per-bound minima, which are
	// never live at the same time.
	scratch []uint32
	// commOff/commVtx is the member CSR G'_C' of the last aggregation:
	// the vertices of each refined community, which moveLabels reads
	// after aggregation has used it. The connectivity splits index
	// their labels there too (members).
	commOff []uint32
	commVtx []uint32
	flags   *parallel.Flags
	dq      []parallel.Padded[float64] // per-thread ΔQ partial sums (decision-time gains)
	rq      []parallel.Padded[float64] // per-thread realized-ΔQ partial sums (asynchronous moves)
	moved   []parallel.Padded[int64]   // per-thread refinement move counters
	mc      []mcSlot                   // per-thread local-moving work counters
	agg     []parallel.Padded[int64]   // per-thread aggregation arc counters
	arenas  [2]arena
	movers  [][]mover // per-thread decision buffers (deterministic kernels)
	// Split scratch: grown-once buffers for the connectivity splits
	// (component labels, BFS queues) and the visit marks that the
	// splits and a resumed pass 0's unit split share (marks).
	splitOut   []uint32
	splitQueue []uint32
	seen       []bool
	cur        int   // arena index holding the *next* write target
	stats      Stats // per-pass statistics collected by the driver

	// Dynamic (warm-start) state, consumed by pass 0 only.
	warm     []uint32   // previous membership as representative labels; nil = cold start
	frontier []uint32   // vertices to seed the pruning flags with; nil = all
	resume   *Hierarchy // previous dendrogram whose last level pass 0 inherits; nil = refine from singletons

	// hierarchy, when non-nil, records one Level per pass.
	hierarchy *Hierarchy
}

func newWorkspace(g *graph.CSR, opt Options) *workspace {
	n := g.NumVertices()
	t := opt.Threads
	ws := &workspace{
		opt:     opt,
		n0:      n,
		tables:  make([]*hashtable.Accumulator, t),
		flats:   make([]hashtable.Flat, t),
		rngs:    prng.Streams(opt.Seed, t),
		top:     make([]uint32, n),
		k:       make([]float64, n),
		sigma:   parallel.NewFloat64s(n),
		comm:    make([]uint32, n),
		bounds:  make([]uint32, n),
		initC:   make([]uint32, n),
		scratch: make([]uint32, n+1),
		flags:   parallel.NewFlags(n),
		dq:      make([]parallel.Padded[float64], t),
		rq:      make([]parallel.Padded[float64], t),
		moved:   make([]parallel.Padded[int64], t),
		mc:      make([]mcSlot, t),
		agg:     make([]parallel.Padded[int64], t),
		movers:  make([][]mover, t),
	}
	if opt.Objective == ObjectiveCPM {
		ws.sizes = newSizeState(n)
	}
	return ws
}

// table returns thread tid's dense accumulator for keys in [0, n). A
// thread allocates it at its first scan of a vertex or community past
// hashtable.FlatCap, sized to that level's key range, so a run whose
// large levels all take the flat path never holds the O(T·N) tables;
// later levels only shrink, so Resize reallocates only for the final
// refinement's sweep over the input graph. It stays out of line so the
// allocation does not inline into the noescape scan kernels.
//
//go:noinline
func (ws *workspace) table(tid, n int) *hashtable.Accumulator {
	h := ws.tables[tid]
	if h == nil {
		h = hashtable.New(n)
		ws.tables[tid] = h
		return h
	}
	h.Resize(n)
	return h
}

// commLoad / commStore access the membership array atomically: the
// asynchronous local-moving and refinement phases read neighbours'
// memberships while owners rewrite them.
func commLoad(comm []uint32, i uint32) uint32 {
	return atomic.LoadUint32(&comm[i])
}

func commStore(comm []uint32, i uint32, v uint32) {
	atomic.StoreUint32(&comm[i], v)
}

// vertexWeights fills k[i] = K'_i for the current graph, in parallel.
func (ws *workspace) vertexWeights(g *graph.CSR, k []float64) {
	ws.opt.Pool.For(g.NumVertices(), ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			k[i] = g.VertexWeight(uint32(i))
		}
	})
}

// startPass starts a pass's communities from init (nil: singletons).
// On pass 0 it first computes the vertex weights K', the total weight m
// and the unit vertex sizes; later passes find K' already written by the
// aggregation that built their graph (see aggregate). It reports false
// for a graph without edges, where every vertex stays its own community.
func (ws *workspace) startPass(g *graph.CSR, pass int, init []uint32) bool {
	n := g.NumVertices()
	if pass == 0 {
		k := ws.k[:n]
		ws.vertexWeights(g, k)
		ws.m = ws.opt.Pool.SumFloat64(k, ws.opt.Threads) / 2
		if ws.m == 0 {
			return false
		}
		ws.sizes.unit(ws.opt, n)
	}
	ws.initialCommunities(n, init)
	return true
}

// startRefine makes the move-phase communities the refinement bounds
// C'_B and resets memberships and community totals to singletons.
func (ws *workspace) startRefine(n int) {
	copy(ws.bounds[:n], ws.comm[:n])
	ws.initialCommunities(n, nil)
}

// initialCommunities sets comm, Σ' and (for CPM) the community sizes:
// to the labels in init — the move-based labels carried over from the
// previous aggregation, or a membership to refine — or, with init nil,
// to singletons.
func (ws *workspace) initialCommunities(n int, init []uint32) {
	comm := ws.comm[:n]
	k := ws.k[:n]
	ws.sigma.Resize(n)
	if init == nil {
		ws.opt.Pool.Iota(comm, ws.opt.Threads)
		ws.sigma.CopyFrom(ws.opt.Pool, k, ws.opt.Threads)
		ws.sizes.singletons(ws.opt, n)
		return
	}
	copy(comm, init)
	ws.sigma.Zero(ws.opt.Pool, ws.opt.Threads)
	ws.opt.Pool.For(n, ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			ws.sigma.Add(int(comm[i]), k[i])
		}
	})
	ws.sizes.group(ws.opt, comm)
}

// delta evaluates the gain of moving a vertex (weighted degree ki, size
// si) from community d (weight sd, size nd, edge weight kid towards it)
// to community c (sc, nc, kic) under the configured objective:
//
//	modularity: ΔQ = (kic−kid)/m − γ·ki(ki+Σc−Σd)/(2m²)   (Equation 2)
//	CPM:        ΔH = [(kic−kid) − γ·si(nc+si−nd)]/m
//
// Both are normalized by m so the iteration tolerance τ means the same
// thing for either objective (and ΔH/m matches quality.CPM's scale).
// Modularity never reads si, nc or nd, which its callers pass as zero:
// a modularity run keeps no size state (see sizeState).
func (ws *workspace) delta(kic, kid, ki, sc, sd, si, nc, nd float64) float64 {
	if ws.opt.Objective == ObjectiveCPM {
		return ((kic - kid) - ws.opt.Resolution*si*(nc+si-nd)) / ws.m
	}
	return (kic-kid)/ws.m - ws.opt.Resolution*ki*(ki+sc-sd)/(2*ws.m*ws.m)
}

// sizeState is the Constant Potts Model's size state: the number of
// input vertices folded into each super-vertex (s_i) and held by each
// community (n_c), the terms ΔH reads and ΔQ does not. Only CPM runs
// allocate it; under modularity workspace.sizes is nil, and every method
// is a no-op returning zero sizes, so the move, refine and aggregate
// kernels touch only K' and Σ'.
type sizeState struct {
	vsize []float64          // s_i: input vertices folded into each super-vertex
	csize *parallel.Float64s // n_c: per-community vertex count
	agg   *parallel.Float64s // grown-once size-rollup arena (rollup)
}

func newSizeState(n int) *sizeState {
	return &sizeState{
		vsize: make([]float64, n),
		csize: parallel.NewFloat64s(n),
		agg:   parallel.NewFloat64s(n),
	}
}

// vertex returns s_u.
func (s *sizeState) vertex(u uint32) float64 {
	if s == nil {
		return 0
	}
	return s.vsize[u]
}

// comm returns n_c.
func (s *sizeState) comm(c uint32) float64 {
	if s == nil {
		return 0
	}
	return s.csize.Get(int(c))
}

// move transfers size si from community d to community c atomically and
// returns the sizes the two held just before (n_d, n_c).
func (s *sizeState) move(d, c uint32, si float64) (nd, nc float64) {
	if s == nil {
		return 0, 0
	}
	return s.csize.FetchAdd(int(d), -si), s.csize.FetchAdd(int(c), si)
}

// unit gives each of the n input vertices size 1.
func (s *sizeState) unit(opt Options, n int) {
	if s == nil {
		return
	}
	opt.Pool.FillFloat64(s.vsize[:n], 1, opt.Threads)
}

// singletons sets n_c to the vertex sizes: every vertex alone.
func (s *sizeState) singletons(opt Options, n int) {
	if s == nil {
		return
	}
	s.csize.Resize(n)
	s.csize.CopyFrom(opt.Pool, s.vsize[:n], opt.Threads)
}

// group sets n_c to the summed vertex sizes of each community of comm.
func (s *sizeState) group(opt Options, comm []uint32) {
	if s == nil {
		return
	}
	s.csize.Resize(len(comm))
	s.csize.Zero(opt.Pool, opt.Threads)
	opt.Pool.For(len(comm), opt.Threads, opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			s.csize.Add(int(comm[i]), s.vsize[i])
		}
	})
}

// rollup folds the vertex sizes into the next level's super-vertices:
// vsize'[c] = Σ_{i∈c} vsize[i]. The atomic accumulation runs in the
// grown-once agg arena, sized for the pass-0 graph, so levels reuse one
// allocation instead of allocating a fresh Float64s per pass (GC
// pressure that compounds at millions of vertices).
func (s *sizeState) rollup(opt Options, comm []uint32, nComms int) {
	if s == nil {
		return
	}
	s.agg.Resize(nComms)
	s.agg.Zero(opt.Pool, opt.Threads)
	opt.Pool.For(len(comm), opt.Threads, opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			s.agg.Add(int(comm[i]), s.vsize[i])
		}
	})
	for c := 0; c < nComms; c++ {
		s.vsize[c] = s.agg.Get(c)
	}
}

// splitScratch returns the run's grown-once split buffers sized for n
// vertices, allocating them on first use.
func (ws *workspace) splitScratch(n int) (out, queue []uint32) {
	if cap(ws.splitOut) < n {
		ws.splitOut = make([]uint32, n)
		ws.splitQueue = make([]uint32, n)
	}
	return ws.splitOut[:n], ws.splitQueue[:n]
}

// marks returns the run's grown-once visit marks for n vertices, all
// cleared, for a component search.
func (ws *workspace) marks(n int) []bool {
	ws.seen = reserve(ws.seen, n)
	clear(ws.seen)
	return ws.seen
}

// renumber densifies the labels of comm (values < n) in place and
// returns the number of distinct labels, using the existence-flag +
// exclusive-scan technique (Algorithm 1 line 11). Dense ids follow
// ascending label order.
func (ws *workspace) renumber(comm []uint32, n int) int {
	ex := ws.scratch[:n]
	ws.opt.Pool.FillUint32(ex, 0, ws.opt.Threads)
	ws.opt.Pool.For(len(comm), ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			atomic.StoreUint32(&ex[comm[i]], 1)
		}
	})
	total := ws.opt.Pool.ExclusiveScanUint32(ex, ws.opt.Threads)
	ws.opt.Pool.For(len(comm), ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			comm[i] = ex[comm[i]] //gvevet:exclusive read-only phase: ex stores finished behind the scan's region barriers
		}
	})
	return int(total)
}

// renumberRefined densifies the refined labels ws.comm[:n] and returns
// their count, with the ids renumber would give. Refinement names every
// non-empty sub-community after a vertex it still holds: every vertex
// starts alone, only an isolated one leaves, and nothing joins an
// emptied sub-community (see refinePhase). So label c exists exactly
// when comm[c] == c, and one plain pass marks the labels where renumber
// needs a fill and an atomic scatter. After the scan over n+1 entries,
// c is an anchor exactly when ex[c+1]−ex[c] == 1, which the relabel
// checks beside the ex[c] it loads. It writes into initC, dead between
// startPass and moveLabels, and swaps the two buffers when every label
// passed, so a labeling that breaks the argument (zero- or
// negative-weight arcs, or a weight absorbed in Σ', can) still has its
// labels for the fallback to renumber.
func (ws *workspace) renumberRefined(n int) int {
	pool, threads, grain := ws.opt.Pool, ws.opt.Threads, ws.opt.Grain
	comm := ws.comm[:n]
	ex := ws.scratch[:n+1]
	pool.For(n, threads, grain, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			var anchor uint32
			if comm[c] == uint32(c) {
				anchor = 1
			}
			ex[c] = anchor
		}
	})
	ex[n] = 0
	total := pool.ExclusiveScanUint32(ex, threads)
	out := ws.initC[:n]
	var stray atomic.Bool
	pool.For(n, threads, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			c := comm[i]
			d := ex[c]
			if ex[c+1]-d != 1 {
				stray.Store(true)
				return
			}
			out[i] = d
		}
	})
	if stray.Load() {
		return ws.renumber(comm, n)
	}
	ws.comm, ws.initC = ws.initC, ws.comm
	return int(total)
}

// lookupDendrogram applies one level of the dendrogram: top[v] becomes
// level[top[v]] (Algorithm 1 lines 12 and 16).
func (ws *workspace) lookupDendrogram(level []uint32) {
	ws.opt.Pool.For(ws.n0, ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			ws.top[v] = level[ws.top[v]]
		}
	})
}

// moveLabels prepares the initial community of each of the next pass's
// k super-vertices from the move-phase partition of this pass's n
// vertices (move-based labels, Algorithm 1 line 14): all members of a
// refined community share one community bound, whose representative is
// the minimum refined id it contains. Each refined community takes its
// bound from one member in aggregation's member CSR, so the pass costs
// k CAS-mins and k stores rather than one of each per vertex.
func (ws *workspace) moveLabels(n, k int) {
	pool, threads, grain := ws.opt.Pool, ws.opt.Threads, ws.opt.Grain
	bounds := ws.bounds[:n] // move-phase labels (raw vertex ids)
	first := ws.commOff[:k]
	members := ws.commVtx[:n]
	low := ws.scratch[:n] // per-bound minimum refined id
	pool.FillUint32(low, ^uint32(0), threads)
	pool.For(k, threads, grain, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			atomicMinUint32(&low[bounds[members[first[c]]]], uint32(c))
		}
	})
	initC := ws.initC[:k]
	pool.For(k, threads, grain, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			initC[c] = low[bounds[members[first[c]]]]
		}
	})
}

func atomicMinUint32(addr *uint32, v uint32) {
	for {
		old := atomic.LoadUint32(addr)
		if old <= v {
			return
		}
		if atomic.CompareAndSwapUint32(addr, old, v) {
			return
		}
	}
}

// sumDQ returns one local-moving iteration's summed decision-time and
// realized gains.
func (ws *workspace) sumDQ() (dq, realized float64) {
	for i := range ws.dq {
		dq += ws.dq[i].V
		realized += ws.rq[i].V
	}
	return dq, realized
}

func (ws *workspace) zeroDQ() {
	for i := range ws.dq {
		ws.dq[i].V = 0
		ws.rq[i].V = 0
	}
}

func (ws *workspace) sumMoved() int64 {
	var s int64
	for i := range ws.moved {
		s += ws.moved[i].V
	}
	return s
}

func (ws *workspace) zeroMoved() {
	for i := range ws.moved {
		ws.moved[i].V = 0
	}
}

// iterCounters are the local-moving work counters of one iteration,
// accumulated in per-thread padded slots (chunk-local sums merged at
// chunk end) so the hot loop stays plain increments on registers.
type iterCounters struct {
	scanned int64 // vertices examined (pruning survivors)
	pruned  int64 // vertices skipped by flag-based pruning
	flat    int64 // scanned vertices served by the flat-array scan
	moves   int64 // moves applied
}

// mcSlot is one thread's iterCounters cell, padded to exactly one cache
// line. iterCounters is 32 bytes, which parallel.Padded would round to
// 88 — straddling lines so neighbouring threads' slots collide — hence
// this purpose-built concrete slot (the pattern padsize prescribes for
// element types wider than 8 bytes).
//
//gvevet:padded
type mcSlot struct {
	V iterCounters
	_ [32]byte
}

func (ws *workspace) zeroMC() {
	for i := range ws.mc {
		ws.mc[i].V = iterCounters{}
	}
}

func (ws *workspace) sumMC() iterCounters {
	var s iterCounters
	for i := range ws.mc {
		s.scanned += ws.mc[i].V.scanned
		s.pruned += ws.mc[i].V.pruned
		s.flat += ws.mc[i].V.flat
		s.moves += ws.mc[i].V.moves
	}
	return s
}

func (ws *workspace) zeroAgg() {
	for i := range ws.agg {
		ws.agg[i].V = 0
	}
}

func (ws *workspace) sumAgg() int64 {
	var s int64
	for i := range ws.agg {
		s += ws.agg[i].V
	}
	return s
}
