package core

import (
	"sync/atomic"

	"gveleiden/internal/graph"
	"gveleiden/internal/hashtable"
	"gveleiden/internal/parallel"
	"gveleiden/internal/prng"
)

// arena holds the preallocated storage for one aggregated graph. Two
// arenas ping-pong across passes: pass p reads the graph in one arena
// and writes the super-vertex graph into the other. Everything is sized
// once for the input graph (the largest level), so no per-pass
// allocation happens — the paper's preallocated-CSR optimization, which
// also keeps Go GC pressure flat on big graphs.
type arena struct {
	offsets []uint32  // super-vertex CSR offsets (holey capacity bounds)
	counts  []uint32  // per-super-vertex arc counts
	edges   []uint32  // arc targets
	weights []float32 // arc weights
	commOff []uint32  // community-vertices CSR offsets (G'_C')
	commVtx []uint32  // community-vertices CSR data
}

func newArena(n int, arcs int64) arena {
	return arena{
		offsets: make([]uint32, n+1),
		counts:  make([]uint32, n+1),
		edges:   make([]uint32, arcs),
		weights: make([]float32, arcs),
		commOff: make([]uint32, n+2),
		commVtx: make([]uint32, n),
	}
}

// workspace carries every buffer a run needs, allocated once up front.
type workspace struct {
	opt     Options
	n0      int     // input vertex count
	m       float64 // half the total edge weight (constant across passes)
	tables  []*hashtable.Accumulator
	flats   []hashtable.Flat // per-thread flat scan accumulators (low-degree fast path)
	rngs    []*prng.Xorshift32
	top     []uint32 // C: top-level membership over input vertices
	k       []float64
	sigma   *parallel.Float64s
	vsize   []float64          // vertices folded into each super-vertex (CPM's n_c term)
	vsizeNx []float64          // next pass's vsize, filled after aggregation
	csize   *parallel.Float64s // per-community vertex count
	comm    []uint32           // C'
	bounds  []uint32           // C'_B
	initC   []uint32           // initial communities of the next pass's vertices
	lbl     []uint32           // move-community representative labels
	scratch []uint32           // renumbering / existence buffer
	cursor  []uint32           // aggregation placement cursors
	flags   *parallel.Flags
	dq      []parallel.Padded[float64] // per-thread ΔQ partial sums (decision-time gains)
	rq      []parallel.Padded[float64] // per-thread realized-ΔQ partial sums (asynchronous moves)
	moved   []parallel.Padded[int64]   // per-thread refinement move counters
	mc      []mcSlot                   // per-thread local-moving work counters
	agg     []parallel.Padded[int64]   // per-thread aggregation arc counters
	arenas  [2]arena
	sizeAgg *parallel.Float64s // grown-once size-rollup arena (aggregateSizes)
	movers  [][]mover          // per-thread decision buffers (deterministic kernels)
	// Split scratch: grown-once buffers for the connectivity splits that
	// close out a run (component labels, label-kept flags, BFS stack).
	splitOut   []uint32
	splitSeen  []uint32
	splitQueue []uint32
	cur        int   // arena index holding the *next* write target
	stats      Stats // per-pass statistics collected by the driver

	// Dynamic (warm-start) state, consumed by pass 0 only.
	warm     []uint32 // previous membership as representative labels; nil = cold start
	frontier []uint32 // vertices to seed the pruning flags with; nil = all

	// hierarchy, when non-nil, records one Level per pass.
	hierarchy *Hierarchy
}

func newWorkspace(g *graph.CSR, opt Options) *workspace {
	n := g.NumVertices()
	arcs := g.NumArcs()
	t := opt.Threads
	ws := &workspace{
		opt:     opt,
		n0:      n,
		tables:  hashtable.PerThread(n, t),
		flats:   make([]hashtable.Flat, t),
		rngs:    prng.Streams(opt.Seed, t),
		top:     make([]uint32, n),
		k:       make([]float64, n),
		sigma:   parallel.NewFloat64s(n),
		vsize:   make([]float64, n),
		vsizeNx: make([]float64, n),
		csize:   parallel.NewFloat64s(n),
		comm:    make([]uint32, n),
		bounds:  make([]uint32, n),
		initC:   make([]uint32, n),
		lbl:     make([]uint32, n),
		scratch: make([]uint32, n+1),
		cursor:  make([]uint32, n+1),
		flags:   parallel.NewFlags(n),
		dq:      make([]parallel.Padded[float64], t),
		rq:      make([]parallel.Padded[float64], t),
		moved:   make([]parallel.Padded[int64], t),
		mc:      make([]mcSlot, t),
		agg:     make([]parallel.Padded[int64], t),
		sizeAgg: parallel.NewFloat64s(n),
		movers:  make([][]mover, t),
	}
	ws.arenas[0] = newArena(n, arcs)
	ws.arenas[1] = newArena(n, arcs)
	return ws
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

// initialCommunities sets comm, sigma and csize for the start of a
// pass: either the move-based labels carried over from the previous
// aggregation (haveInit) or fresh singletons.
func (ws *workspace) initialCommunities(n int, haveInit bool) {
	comm := ws.comm[:n]
	k := ws.k[:n]
	ws.sigma.Resize(n)
	ws.csize.Resize(n)
	if !haveInit {
		ws.opt.Pool.Iota(comm, ws.opt.Threads)
		ws.sigma.CopyFrom(ws.opt.Pool, k, ws.opt.Threads)
		ws.csize.CopyFrom(ws.opt.Pool, ws.vsize[:n], ws.opt.Threads)
		return
	}
	copy(comm, ws.initC[:n]) //gvevet:exclusive pass boundary: initC was last stored in the previous pass's moveLabels, behind two pool barriers
	ws.sigma.Zero(ws.opt.Pool, ws.opt.Threads)
	ws.csize.Zero(ws.opt.Pool, ws.opt.Threads)
	ws.opt.Pool.For(n, ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			ws.sigma.Add(int(comm[i]), k[i])
			ws.csize.Add(int(comm[i]), ws.vsize[i])
		}
	})
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
func (ws *workspace) delta(kic, kid, ki, sc, sd, si, nc, nd float64) float64 {
	if ws.opt.Objective == ObjectiveCPM {
		return ((kic - kid) - ws.opt.Resolution*si*(nc+si-nd)) / ws.m
	}
	return (kic-kid)/ws.m - ws.opt.Resolution*ki*(ki+sc-sd)/(2*ws.m*ws.m)
}

// aggregateSizes rolls the per-vertex sizes up into the next level's
// super-vertices (vsize'[c] = Σ_{i∈c} vsize[i]) and swaps the buffers.
// The atomic accumulation runs in ws.sizeAgg, a grown-once arena sized
// for the pass-0 graph, so levels reuse one allocation instead of
// allocating a fresh Float64s per pass (GC pressure that compounds at
// millions of vertices).
func (ws *workspace) aggregateSizes(n, nComms int) {
	comm := ws.comm[:n]
	next := ws.vsizeNx[:nComms]
	agg := ws.sizeAgg
	agg.Resize(nComms)
	agg.Zero(ws.opt.Pool, ws.opt.Threads)
	ws.opt.Pool.For(n, ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			agg.Add(int(comm[i]), ws.vsize[i])
		}
	})
	for i := range next {
		next[i] = agg.Get(i)
	}
	copy(ws.vsize[:nComms], next)
}

// splitScratch returns the run's grown-once split buffers sized for n
// vertices, allocating them on first use (terminal connectivity splits
// only — most runs hit this exactly once).
func (ws *workspace) splitScratch(n int) (out, seen, queue []uint32) {
	if cap(ws.splitOut) < n {
		ws.splitOut = make([]uint32, n)
		ws.splitSeen = make([]uint32, n)
		ws.splitQueue = make([]uint32, n)
	}
	return ws.splitOut[:n], ws.splitSeen[:n], ws.splitQueue[:n]
}

// splitConnected is splitConnectedLabels running in the workspace's
// split arena instead of fresh per-call buffers.
func (ws *workspace) splitConnected(g *graph.CSR, labels []uint32) int {
	out, seen, queue := ws.splitScratch(g.NumVertices())
	return splitConnectedInto(g, labels, out, seen, queue)
}

// renumber densifies the labels of comm (values < n) in place and
// returns the number of distinct labels, using the existence-flag +
// exclusive-scan technique (Algorithm 1 line 11).
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

// lookupDendrogram applies one level of the dendrogram: top[v] becomes
// level[top[v]] (Algorithm 1 lines 12 and 16).
func (ws *workspace) lookupDendrogram(level []uint32) {
	ws.opt.Pool.For(ws.n0, ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			ws.top[v] = level[ws.top[v]]
		}
	})
}

// moveLabels prepares the next pass's initial community of each
// super-vertex from the move-phase partition (move-based labels,
// Algorithm 1 line 14): all members of a refined community share one
// community bound, whose representative is the minimum refined id it
// contains.
func (ws *workspace) moveLabels(n int) {
	comm := ws.comm[:n]     // refined, renumbered
	bounds := ws.bounds[:n] // move-phase labels (raw vertex ids)
	lbl := ws.lbl[:n]
	ws.opt.Pool.FillUint32(lbl, ^uint32(0), ws.opt.Threads)
	ws.opt.Pool.For(n, ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			atomicMinUint32(&lbl[bounds[i]], comm[i])
		}
	})
	ws.opt.Pool.For(n, ws.opt.Threads, ws.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			// All members of a refined community share one bound, so the
			// stores agree; they are atomic to stay race-detector clean.
			atomic.StoreUint32(&ws.initC[comm[i]], lbl[bounds[i]])
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
