// Package gen provides deterministic synthetic graph generators. They
// stand in for the SuiteSparse Matrix Collection datasets of the paper
// (Table 2), which are far too large for this environment: each of the
// four dataset classes — LAW web crawls, SNAP social networks, DIMACS10
// road networks, and GenBank protein k-mer graphs — has a generator that
// reproduces its structural signature (degree distribution, community
// structure, diameter regime) at laptop scale, so every code path the
// paper's evaluation exercises (hashtable scans over skewed degrees,
// refinement splits, aggregation shrink rates, low-degree long-diameter
// passes) is exercised here too.
//
// All generators are deterministic functions of their parameters and
// seed.
package gen

import (
	"fmt"
	"math"

	"gveleiden/internal/graph"
	"gveleiden/internal/prng"
)

// ByName builds the graph the command-line tools generate for -gen
// name with about n vertices: one of the four dataset classes (web,
// social, road, kmer) or a classic model (er, ba, rmat), each with the
// tools' fixed parameters — average degree 20 for web and social (64
// planted communities, mixing 0.35 for social), 8n edges for er and
// rmat (2^scale ≥ n vertices), 8 edges per new vertex for ba.
func ByName(name string, n int, seed uint64) (*graph.CSR, error) {
	switch name {
	case "web":
		g, _ := WebGraph(n, 20, seed)
		return g, nil
	case "social":
		g, _ := SocialNetwork(n, 20, 64, 0.35, seed)
		return g, nil
	case "road":
		g, _ := RoadNetwork(n, seed)
		return g, nil
	case "kmer":
		g, _ := KmerGraph(n, seed)
		return g, nil
	case "er":
		return ErdosRenyi(n, n*8, seed), nil
	case "ba":
		return BarabasiAlbert(n, 8, seed), nil
	case "rmat":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return RMAT(scale, n*8, 0, 0, 0, seed), nil
	}
	return nil, fmt.Errorf("unknown generator %q", name)
}

// rng is a convenience wrapper giving generators a richer sampling
// toolkit on top of the xorshift32 core.
type rng struct {
	x *prng.Xorshift32
}

func newRNG(seed uint64) *rng {
	return &rng{x: prng.NewXorshift32(seed)}
}

func (r *rng) uint32n(n uint32) uint32 { return r.x.Uintn(n) }
func (r *rng) float64() float64        { return r.x.Float64() }

// powerLawSizes draws k sizes from a discrete power-law with the given
// exponent in [minSize, maxSize], scaled so they sum to total. The last
// size absorbs rounding. Community-size distributions in real web and
// social graphs are heavy-tailed, which is what stresses the dynamic
// loop schedule (skewed per-community aggregation work).
func powerLawSizes(r *rng, total, k, minSize, maxSize int, exponent float64) []int {
	if k <= 0 {
		return nil
	}
	raw := make([]float64, k)
	var sum float64
	for i := range raw {
		// Inverse-CDF sampling of a bounded Pareto.
		u := r.float64()
		lo := float64(minSize)
		hi := float64(maxSize)
		a := exponent - 1
		x := lo / pow(1-u*(1-pow(lo/hi, a)), 1/a)
		raw[i] = x
		sum += x
	}
	sizes := make([]int, k)
	assigned := 0
	for i := range raw {
		s := int(raw[i] / sum * float64(total))
		if s < 1 {
			s = 1
		}
		sizes[i] = s
		assigned += s
	}
	// Distribute the remainder (positive or negative) across communities.
	i := 0
	for assigned < total {
		sizes[i%k]++
		assigned++
		i++
	}
	for assigned > total {
		j := i % k
		if sizes[j] > 1 {
			sizes[j]--
			assigned--
		}
		i++
	}
	return sizes
}

func pow(base, exp float64) float64 {
	if base <= 0 {
		return 0
	}
	return math.Pow(base, exp)
}

// Membership describes a planted ground-truth partition returned by the
// structured generators, usable for quality checks.
type Membership []uint32

// NumCommunities returns the number of distinct planted communities.
func (m Membership) NumCommunities() int {
	seen := make(map[uint32]struct{})
	for _, c := range m {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// edgeSet deduplicates undirected edges during generation so builders
// receive each edge once. Keys are packed (min,max) pairs.
type edgeSet struct {
	set map[uint64]struct{}
}

func newEdgeSet(capacity int) *edgeSet {
	return &edgeSet{set: make(map[uint64]struct{}, capacity)}
}

func (s *edgeSet) add(u, v uint32) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	key := uint64(u)<<32 | uint64(v)
	if _, ok := s.set[key]; ok {
		return false
	}
	s.set[key] = struct{}{}
	return true
}

func (s *edgeSet) len() int { return len(s.set) }

func (s *edgeSet) toBuilder(n int) *graph.Builder {
	b := graph.NewBuilder(n)
	for key := range s.set {
		b.AddEdge(uint32(key>>32), uint32(key), 1)
	}
	return b
}
