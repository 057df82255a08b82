package quality

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// TestIndexMembersMatchesMapGrouping: on random dense labelings — with
// n = 0, a single community and all singletons among them — the index
// holds each community's members in ascending order, as a map-based
// grouping in vertex order does.
func TestIndexMembersMatchesMapGrouping(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := rng.IntN(500)
		k := 1 + rng.IntN(max(n, 1))
		switch seed % 5 {
		case 0:
			n = 0
		case 1:
			k = 1
		case 2:
			k = n
		}
		membership := make([]uint32, n)
		for v := range membership {
			membership[v] = uint32(v % max(k, 1)) // every label in [0, k) used
		}
		rng.Shuffle(n, func(i, j int) { membership[i], membership[j] = membership[j], membership[i] })

		want := map[uint32][]uint32{}
		for v, c := range membership {
			want[c] = append(want[c], uint32(v))
		}
		m := IndexMembers(membership)
		if m.Len() != len(want) {
			t.Fatalf("seed %d: %d communities, want %d", seed, m.Len(), len(want))
		}
		for c := 0; c < m.Len(); c++ {
			if got := m.Of(uint32(c)); !slices.Equal(got, want[uint32(c)]) {
				t.Fatalf("seed %d: community %d has %v, want %v", seed, c, got, want[uint32(c)])
			}
		}
	}
}

// TestMembersOfIsCapacityCapped: appending to one community's members
// reallocates instead of overwriting the next community's.
func TestMembersOfIsCapacityCapped(t *testing.T) {
	m := IndexMembers([]uint32{0, 1, 0, 1, 2})
	first := m.Of(0)
	_ = append(first, 99)
	if got := m.Of(1); !slices.Equal(got, []uint32{1, 3}) {
		t.Fatalf("community 1 after an append to community 0: %v", got)
	}
}

// subsetScratchStats is CountDisconnectedOn as it was before the
// members index: a map renumbering, a counting-sort bucket, and one
// SubsetScratch BFS per community.
func subsetScratchStats(g *graph.CSR, membership []uint32) DisconnectedStats {
	n := g.NumVertices()
	groups := map[uint32][]uint32{}
	for v := 0; v < n; v++ {
		groups[membership[v]] = append(groups[membership[v]], uint32(v))
	}
	s := graph.NewSubsetScratch(n)
	ds := DisconnectedStats{Communities: len(groups)}
	for _, members := range groups {
		if !s.SubsetConnected(g, members) {
			ds.Disconnected++
		}
	}
	if ds.Communities > 0 {
		ds.Fraction = float64(ds.Disconnected) / float64(ds.Communities)
	}
	return ds
}

// TestCountDisconnectedInMatchesSubsetScratch: on random partitions of
// generated graphs with planted disconnected communities (pairs of
// communities merged under one label), and on the same partitions
// relabelled with labels at and past the vertex count, the indexed BFS
// gives the SubsetScratch BFS's stats at 1, 2 and 7 threads.
func TestCountDisconnectedInMatchesSubsetScratch(t *testing.T) {
	pool := parallel.NewPool(7)
	defer pool.Close()
	for seed := uint64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewPCG(seed, 9))
		n := 200 + rng.IntN(3000)
		var g *graph.CSR
		if seed%2 == 0 {
			g, _ = gen.SocialNetwork(n, 10, 4, 0.2, seed)
		} else {
			g, _ = gen.RoadNetwork(n, seed)
		}
		n = g.NumVertices()
		// A BFS partition into connected pieces of up to 20 vertices.
		membership := make([]uint32, n)
		const unset = ^uint32(0)
		for v := range membership {
			membership[v] = unset
		}
		k := uint32(0)
		for s := 0; s < n; s++ {
			if membership[s] != unset {
				continue
			}
			queue, size := []uint32{uint32(s)}, 1
			membership[s] = k
			for len(queue) > 0 && size < 20 {
				u := queue[0]
				queue = queue[1:]
				es, _ := g.Neighbors(u)
				for _, e := range es {
					if membership[e] == unset && size < 20 {
						membership[e] = k
						queue = append(queue, e)
						size++
					}
				}
			}
			k++
		}
		// Plant disconnected communities: merge random pairs of pieces.
		for p := 0; p < int(k)/10; p++ {
			a, b := rng.Uint32N(k), rng.Uint32N(k)
			for v := range membership {
				if membership[v] == b {
					membership[v] = a
				}
			}
		}
		// The same partition under labels ≥ n.
		far := make([]uint32, n)
		for v, c := range membership {
			far[v] = uint32(n) + 7*c
		}
		want := subsetScratchStats(g, membership)
		if want.Disconnected == 0 && k > 20 {
			t.Fatalf("seed %d: no disconnected community planted", seed)
		}
		for _, threads := range []int{1, 2, 7} {
			label := fmt.Sprintf("seed %d, %d threads", seed, threads)
			if got := CountDisconnectedOn(pool, g, membership, threads); got != want {
				t.Fatalf("%s: %+v, want %+v", label, got, want)
			}
			if got := CountDisconnectedIn(pool, g, membership, IndexMembers(membership), threads); got != want {
				t.Fatalf("%s: indexed %+v, want %+v", label, got, want)
			}
			if got := CountDisconnectedOn(pool, g, far, threads); got != want {
				t.Fatalf("%s: labels ≥ n: %+v, want %+v", label, got, want)
			}
		}
	}
}
