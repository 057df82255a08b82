// Package bench provides the evaluation harness that regenerates every
// table and figure of the paper: the synthetic 13-graph dataset registry
// standing in for Table 2, the registry of community-detection
// implementations compared in Figure 6, repeat-and-average timing, and
// one experiment runner per table/figure (see DESIGN.md §4 for the
// mapping).
package bench

import (
	"fmt"
	"sync"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
)

// Dataset is one entry of the evaluation corpus.
type Dataset struct {
	// Name mirrors the paper's graph name with a class prefix.
	Name string
	// Class is one of "web", "social", "road", "kmer".
	Class string
	// Scale is the size multiplier Registry was called with. Every scale
	// reuses the same names, so Load memoizes by name and scale.
	Scale float64
	// Build generates the graph and its planted ground truth (nil when
	// the class has no meaningful planted partition).
	Build func() (*graph.CSR, gen.Membership)
}

// Registry returns the 13-graph corpus mirroring Table 2 of the paper:
// seven LAW-like web crawls, two SNAP-like social networks, two
// DIMACS10-like road networks and two GenBank-like protein k-mer graphs.
// scale multiplies the vertex counts (1.0 ≈ a corpus that runs all five
// implementations in seconds on a laptop).
func Registry(scale float64) []Dataset {
	if scale <= 0 {
		scale = 1
	}
	sz := func(base int) int {
		n := int(float64(base) * scale)
		if n < 64 {
			n = 64
		}
		return n
	}
	web := func(name string, n int, deg float64, seed uint64) Dataset {
		return Dataset{Name: name, Class: "web", Build: func() (*graph.CSR, gen.Membership) {
			return gen.WebGraph(sz(n), deg, seed)
		}}
	}
	ds := []Dataset{
		// Web graphs (LAW analogues). Average degrees follow Table 2's
		// ordering: indochina 41.0 … webbase 8.6 … sk 38.5.
		web("web-indochina", 12000, 30, 101),
		web("web-uk-2002", 16000, 16, 102),
		web("web-arabic", 18000, 24, 103),
		web("web-uk-2005", 20000, 22, 104),
		web("web-webbase", 26000, 8.6, 105),
		web("web-it", 22000, 26, 106),
		web("web-sk", 28000, 32, 107),
		// Social networks (SNAP analogues): LiveJournal resolves to many
		// communities, Orkut to very few (paper: 36) — weak structure.
		{Name: "soc-livejournal", Class: "social", Build: func() (*graph.CSR, gen.Membership) {
			return gen.SocialNetwork(sz(16000), 17, 96, 0.35, 201)
		}},
		{Name: "soc-orkut", Class: "social", Build: func() (*graph.CSR, gen.Membership) {
			return gen.SocialNetwork(sz(9000), 44, 12, 0.45, 202)
		}},
		// Road networks (DIMACS10 analogues): degree ≈ 2.1.
		{Name: "road-asia", Class: "road", Build: func() (*graph.CSR, gen.Membership) {
			return gen.RoadNetwork(sz(24000), 301)
		}},
		{Name: "road-europe", Class: "road", Build: func() (*graph.CSR, gen.Membership) {
			return gen.RoadNetwork(sz(40000), 302)
		}},
		// Protein k-mer graphs (GenBank analogues): degree ≈ 2.1 chains.
		{Name: "kmer-A2a", Class: "kmer", Build: func() (*graph.CSR, gen.Membership) {
			return gen.KmerGraph(sz(32000), 401)
		}},
		{Name: "kmer-V1r", Class: "kmer", Build: func() (*graph.CSR, gen.Membership) {
			return gen.KmerGraph(sz(40000), 402)
		}},
	}
	for i := range ds {
		ds[i].Scale = scale
	}
	return ds
}

// cache memoizes built graphs so experiments that share datasets don't
// regenerate them.
var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]builtDataset{}
)

type cacheKey struct {
	name  string
	scale float64
}

type builtDataset struct {
	g     *graph.CSR
	truth gen.Membership
}

// Load builds (or returns the cached) graph for a dataset.
func Load(d Dataset) (*graph.CSR, gen.Membership) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	key := cacheKey{d.Name, d.Scale}
	if b, ok := cache[key]; ok {
		return b.g, b.truth
	}
	g, truth := d.Build()
	cache[key] = builtDataset{g, truth}
	return g, truth
}

// ClearCache drops all memoized graphs (tests use it to bound memory).
func ClearCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cache = map[cacheKey]builtDataset{}
}

// Describe returns a one-line summary of a built dataset, in the format
// of Table 2: |V|, |E| (arcs/2), average degree.
func Describe(name string, g *graph.CSR) string {
	n := g.NumVertices()
	e := g.NumUndirectedEdges()
	_, _, avg := g.DegreeStats()
	return fmt.Sprintf("%-16s |V|=%-8d |E|=%-9d Davg=%.1f", name, n, e, avg)
}
