package core

import (
	"gveleiden/internal/color"
	"gveleiden/internal/graph"
)

// Deterministic mode (Options.Deterministic) trades a little speed for
// reproducibility: the local-moving and refinement phases process one
// graph-coloring class at a time (the Grappolo technique, related work
// [11]), with a frozen decision kernel followed by an apply kernel per
// class. A decision is the asynchronous phases' own (moveTarget,
// refineTarget); only the order of the decisions and the state they
// read differ. No two adjacent vertices decide concurrently and every
// decision reads a stable snapshot, so the final membership is a pure
// function of the graph and options — identical for any thread count —
// whenever edge weights are integers (exact float arithmetic; with
// fractional weights, summation-order rounding may still differ).

// mover is one accepted decision of a deterministic kernel. The
// local-moving kernel also carries the vertex↔community arc weights it
// measured, so the apply kernel can re-evaluate the move's gain against
// the live totals without rescanning the adjacency: within one color
// class no neighbour of u changes community (same-class vertices are
// never adjacent), so kic and kid stay valid until the class commits.
type mover struct {
	u      uint32
	target uint32
	kic    float64 // arc weight from u into target
	kid    float64 // arc weight from u into its current community
}

// movePhaseColored is the deterministic local-moving phase: iterations
// sweep the color classes in order; each class runs a decision kernel
// against frozen state, then an apply kernel. Like movePhase, it
// accumulates work counters into ps and emits per-iteration trace
// spans and observer events.
func (ws *workspace) movePhaseColored(g *graph.CSR, tau float64, col *color.Coloring, pass int, ps *PassStats) int {
	n := g.NumVertices()
	threads, grain := ws.opt.Threads, ws.opt.Grain
	comm := ws.comm[:n]
	sz := ws.sizes
	ws.seedFlags(n)
	moverCh := ws.movers // grown-once per-thread buffers, reused across passes
	iters := 0
	for it := 0; it < ws.opt.MaxIterations; it++ {
		ws.zeroMC()
		realized := 0.0
		sp := ws.opt.Tracer.Begin("move.iter", 0)
		for cls := 0; cls < col.NumColors; cls++ {
			class := col.Class(cls)
			// Decision kernel: frozen comm/Σ (no same-class neighbour
			// can change them — different colors — and applies happen
			// only after the barrier below).
			ws.opt.Pool.For(len(class), threads, grain/4+1, func(lo, hi, tid int) {
				var scanned, pruned, flat, moves int64
				for idx := lo; idx < hi; idx++ {
					u := class[idx]
					if ws.pruned(int(u)) {
						pruned++
						continue
					}
					scanned++
					d := comm[u] //gvevet:exclusive frozen comm: same-class vertices are never adjacent, so no membership read here changes mid-class
					ch, isFlat := ws.moveTarget(tid, g, comm, u, d, ws.k[u], sz.vertex(u))
					if isFlat {
						flat++
					}
					if ch.dq <= 0 {
						continue
					}
					moverCh[tid] = append(moverCh[tid], mover{u: u, target: ch.c, kic: ch.kic, kid: ch.kid}) //gvevet:ignore hotalloc per-class mover buffer whose growth amortizes across color classes
					moves++
				}
				mc := &ws.mc[tid].V
				mc.scanned += scanned
				mc.pruned += pruned
				mc.flat += flat
				mc.moves += moves
			})
			// Apply kernel: commit this class's moves sequentially,
			// re-measuring each gain against the live totals. The
			// decision-time estimates were taken against the frozen
			// snapshot, so when several accepted movers join (or leave)
			// the same community each one misses the others' mass and
			// the estimate sum overstates the realized gain — summing
			// the estimates used to inflate PassStats.DeltaQ by ~1e-3
			// per pass and broke the ΔQ telescope. Re-measured in
			// application order, the gains telescope to exactly
			// Q_after − Q_before. kic/kid stay valid through the class
			// (no same-class neighbours), so each re-measure is O(1).
			for tid := range moverCh {
				for _, m := range moverCh[tid] {
					d := comm[m.u] //gvevet:exclusive sequential apply: runs after the class's region barrier, no concurrent writers
					ki := ws.k[m.u]
					si := sz.vertex(m.u)
					realized += ws.delta(m.kic, m.kid, ki,
						ws.sigma.Get(int(m.target)), ws.sigma.Get(int(d)), si,
						sz.comm(m.target), sz.comm(d))
					ws.sigma.Add(int(d), -ki)
					ws.sigma.Add(int(m.target), ki)
					sz.move(d, m.target, si)
					commStore(comm, m.u, m.target)
				}
			}
			// Frontier marking is order-insensitive; fan it out after ALL
			// of the class's commits. Selective like applyMove: a
			// neighbour already in the mover's destination got more
			// attached, not less, so only neighbours elsewhere are
			// re-flagged. Running the selective check against the fully
			// committed class (not per thread bucket) keeps the flag
			// pattern a pure function of the class's decision set — bucket
			// assignment varies with scheduling, the committed state does
			// not — preserving deterministic mode's thread-count
			// invariance.
			for tid := range moverCh {
				movers := moverCh[tid]
				ws.opt.Pool.For(len(movers), threads, 64, func(lo, hi, _ int) {
					for idx := lo; idx < hi; idx++ {
						target := movers[idx].target
						es, _ := g.Neighbors(movers[idx].u)
						for _, e := range es {
							if commLoad(comm, e) != target {
								ws.flags.Set(int(e), true)
							}
						}
					}
				})
				moverCh[tid] = movers[:0]
			}
		}
		iters++
		ws.recordIteration(pass, it, realized, ps, sp)
		if realized <= tau {
			break
		}
	}
	return iters
}

// refinePhaseColored is the deterministic refinement phase: one sweep
// over the color classes, isolated vertices deciding on frozen state.
// Within a class no two movers can claim the same singleton (targets
// are neighbours' communities, and same-class vertices are never
// neighbours), so the claims always succeed and the result is unique.
func (ws *workspace) refinePhaseColored(g *graph.CSR, col *color.Coloring) int64 {
	n := g.NumVertices()
	threads := ws.opt.Threads
	comm := ws.comm[:n]
	bounds := ws.bounds[:n]
	sz := ws.sizes
	ws.zeroMoved()
	moverCh := ws.movers // grown-once per-thread buffers, shared with the move phase (phases never overlap)
	for cls := 0; cls < col.NumColors; cls++ {
		class := col.Class(cls)
		ws.opt.Pool.For(len(class), threads, 64, func(lo, hi, tid int) {
			for idx := lo; idx < hi; idx++ {
				u := class[idx]
				c := comm[u] //gvevet:exclusive frozen comm: bounded-refine classes freeze memberships behind region barriers
				ki := ws.k[u]
				if ws.sigma.Get(int(c)) != ki {
					continue
				}
				target, ok := ws.refineTarget(tid, g, bounds, comm, c, u, ki)
				if !ok {
					continue
				}
				moverCh[tid] = append(moverCh[tid], mover{u: u, target: target}) //gvevet:ignore hotalloc per-class mover buffer whose growth amortizes across color classes
			}
		})
		for tid := range moverCh {
			movers := moverCh[tid]
			for _, m := range movers {
				c := comm[m.u] //gvevet:exclusive sequential apply: runs after the class's region barrier, CAS arbitrates cross-class races
				ki := ws.k[m.u]
				if !ws.sigma.CAS(int(c), ki, 0) {
					continue // another class's move intervened
				}
				ws.sigma.Add(int(m.target), ki)
				sz.move(c, m.target, sz.vertex(m.u))
				commStore(comm, m.u, m.target)
				ws.moved[tid].V++
			}
			moverCh[tid] = movers[:0]
		}
	}
	return ws.sumMoved()
}
