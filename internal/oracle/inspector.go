package oracle

import (
	"fmt"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
)

// LevelChecks wires the per-level invariants into a run via
// core.Options.Inspector: after every aggregating pass it verifies the
// refined partition (validity, density, containment in the move
// partition, per-community connectivity), the aggregated holey CSR's
// well-formedness, and total-weight conservation across the level.
//
// The inspector runs synchronously inside the algorithm's driver
// goroutine at a pass boundary (all pool barriers behind it), so it may
// freely read the event's aliased workspace buffers; it copies nothing
// and retains nothing.
type LevelChecks struct {
	// R receives the violations.
	R *Report
	// Threads sizes the connectivity sweep and the CSR check (0 =
	// default).
	Threads int
	// Levels counts the events seen.
	Levels int
}

// Inspector returns the callback to install as Options.Inspector.
func (lc *LevelChecks) Inspector() core.LevelInspector {
	return func(ev core.LevelEvent) {
		lc.Levels++
		where := fmt.Sprintf("%s pass %d", ev.Algorithm, ev.Pass)
		Scoped(lc.R, where, func() {
			valid := checkPartition(lc.R, ev.Graph, ev.Refined, true)
			maxLabel := uint32(0)
			for _, c := range ev.Refined {
				if c > maxLabel {
					maxLabel = c
				}
			}
			lc.R.Checks++
			if len(ev.Refined) > 0 && int(maxLabel)+1 != ev.Communities {
				lc.R.addf("partition-validity", "refined labels reach %d but the level declares %d communities", maxLabel, ev.Communities)
			}
			if ev.Move != nil {
				CheckRefinement(lc.R, ev.Refined, ev.Move)
				// Leiden's refinement must leave every refined community
				// connected within the level graph; Louvain (Move == nil)
				// makes no such promise.
				if valid {
					CheckConnected(lc.R, ev.Graph, ev.Refined, lc.Threads)
				}
			}
			CheckCSROn(lc.R, nil, ev.Aggregated, lc.Threads)
			lc.R.Checks++
			if ev.Aggregated.NumVertices() != ev.Communities {
				lc.R.addf("csr-wellformed", "aggregated graph has %d vertices, refined partition has %d communities",
					ev.Aggregated.NumVertices(), ev.Communities)
			}
			CheckWeightConservation(lc.R, ev.Graph, ev.Aggregated, "level")
		})
	}
}

// Attach installs the level checks on opt and returns the modified
// options, composing with any inspector already present.
func (lc *LevelChecks) Attach(opt core.Options) core.Options {
	prev := opt.Inspector
	ins := lc.Inspector()
	if prev == nil {
		opt.Inspector = ins
	} else {
		opt.Inspector = func(ev core.LevelEvent) {
			prev(ev)
			ins(ev)
		}
	}
	return opt
}

// CheckRun performs the whole-run checks on a finished result: final
// partition validity and density, the community count, and — for
// Leiden, once the membership is a valid partition — connectivity of
// every final community on the input graph.
func CheckRun(r *Report, g *graph.CSR, res *core.Result, leiden bool, threads int) {
	if checkPartition(r, g, res.Membership, true) && leiden {
		CheckConnected(r, g, res.Membership, threads)
	}
	r.Checks++
	distinct := make(map[uint32]struct{}, res.NumCommunities)
	for _, c := range res.Membership {
		distinct[c] = struct{}{}
	}
	if g.NumVertices() > 0 && len(distinct) != res.NumCommunities {
		r.addf("partition-validity", "result claims %d communities, membership has %d", res.NumCommunities, len(distinct))
	}
}
