package quality

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// subsetComponents is the reference component search over one vertex
// set: the subgraph of g the set induces (graph.InducedSubgraph),
// searched serially with a visited map. It returns each member's name,
// in set order, which is the smallest vertex of its component, and the
// number of components.
func subsetComponents(g *graph.CSR, set []uint32) ([]uint32, int) {
	sub, orig := graph.InducedSubgraph(g, set)
	names := make([]uint32, len(set))
	visited := map[uint32]bool{}
	comps := 0
	for s := range set {
		if visited[uint32(s)] {
			continue
		}
		comps++
		visited[uint32(s)] = true
		comp := []uint32{uint32(s)}
		for i := 0; i < len(comp); i++ {
			es, _ := sub.Neighbors(comp[i])
			for _, e := range es {
				if !visited[e] {
					visited[e] = true
					comp = append(comp, e)
				}
			}
		}
		root := orig[comp[0]]
		for _, v := range comp {
			root = min(root, orig[v])
		}
		for _, v := range comp {
			names[v] = root
		}
	}
	return names, comps
}

// componentsSerial is ComponentsOn's reference: each group's vertices,
// the listed ones that carry its label, searched with
// subsetComponents. names maps every grouped vertex to its name.
func componentsSerial(g *graph.CSR, labels, off, vtx []uint32) (names map[uint32]uint32, extra, split int64) {
	names = map[uint32]uint32{}
	for c := 0; c+1 < len(off); c++ {
		var group []uint32
		for _, v := range vtx[off[c]:off[c+1]] {
			if labels[v] == uint32(c) {
				group = append(group, v)
			}
		}
		ns, comps := subsetComponents(g, group)
		for i, v := range group {
			names[v] = ns[i]
		}
		if comps > 1 {
			extra += int64(comps - 1)
			split++
		}
	}
	return names, extra, split
}

// checkComponents holds ComponentsOn on pool at threads to
// componentsSerial: the same name for every grouped vertex, out and
// seen left alone for every other vertex, and the same counts, also
// with a nil out. It returns the counts.
func checkComponents(t *testing.T, label string, pool *parallel.Pool, threads int, g *graph.CSR, labels, off, vtx []uint32) (extra, split int64) {
	t.Helper()
	const untouched = ^uint32(0)
	n := g.NumVertices()
	names, wantExtra, wantSplit := componentsSerial(g, labels, off, vtx)
	out := make([]uint32, n)
	for v := range out {
		out[v] = untouched
	}
	seen := make([]bool, n)
	extra, split = ComponentsOn(pool, threads, g, labels, off, vtx, seen, make([]uint32, len(vtx)), out)
	if extra != wantExtra || split != wantSplit {
		t.Fatalf("%s: extra %d, split %d; want %d, %d", label, extra, split, wantExtra, wantSplit)
	}
	for v := range out {
		want, grouped := names[uint32(v)]
		if !grouped {
			want = untouched
		}
		if out[v] != want || seen[v] != grouped {
			t.Fatalf("%s: vertex %d named %d (marked %v), want %d (grouped %v)", label, v, out[v], seen[v], want, grouped)
		}
	}
	extra, split = ComponentsOn(pool, threads, g, labels, off, vtx, make([]bool, n), make([]uint32, len(vtx)), nil)
	if extra != wantExtra || split != wantSplit {
		t.Fatalf("%s: without names extra %d, split %d; want %d, %d", label, extra, split, wantExtra, wantSplit)
	}
	return extra, split
}

// plantedPieces partitions g into connected pieces of up to 20
// vertices, grown by breadth-first search from the smallest vertex not
// yet placed, then plants disconnected communities by merging random
// pairs of pieces. It returns the labels, dense below the piece count
// k, and k.
func plantedPieces(g *graph.CSR, rng *rand.Rand) ([]uint32, uint32) {
	n := g.NumVertices()
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
	for p := 0; p < int(k)/10; p++ {
		a, b := rng.Uint32N(k), rng.Uint32N(k)
		for v := range membership {
			if membership[v] == b {
				membership[v] = a
			}
		}
	}
	return membership, k
}

// listing indexes labels into groups [0, groups): every vertex
// labelled c < groups is listed in group c, each list in shuffled
// order. With foreign set, about one vertex in six is listed once more
// in a group whose label it does not carry.
func listing(rng *rand.Rand, labels []uint32, groups int, foreign bool) (off, vtx []uint32) {
	lists := make([][]uint32, groups)
	for v, c := range labels {
		if int(c) < groups {
			lists[c] = append(lists[c], uint32(v))
		}
		if d := rng.IntN(max(groups, 1)); foreign && groups > 0 && rng.IntN(6) == 0 && uint32(d) != c {
			lists[d] = append(lists[d], uint32(v))
		}
	}
	off = make([]uint32, groups+1)
	for c, l := range lists {
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		vtx = append(vtx, l...)
		off[c+1] = uint32(len(vtx))
	}
	return off, vtx
}

// TestComponentsOnMatchesSerial holds the pooled search to the serial
// reference at 1, 2 and 7 threads, on groupings of generated graphs:
// connected pieces with disconnected pairs planted, the same pieces
// spread over three times as many groups (every other group empty) with
// singleton groups cut out and some vertices left in no group, and
// uniform random labels, each with and without foreign entries.
func TestComponentsOnMatchesSerial(t *testing.T) {
	pool := parallel.NewPool(7)
	defer pool.Close()
	for seed := uint64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 21))
		n := 100 + rng.IntN(2000)
		var g *graph.CSR
		switch seed % 3 {
		case 0:
			g, _ = gen.SocialNetwork(n, 10, 4, 0.2, seed)
		case 1:
			g, _ = gen.RoadNetwork(n, seed)
		default:
			g, _ = gen.WebGraph(n, 8, seed)
		}
		n = g.NumVertices()
		pieces, k := plantedPieces(g, rng)
		spread := make([]uint32, n)
		for v, c := range pieces {
			switch rng.IntN(10) {
			case 0:
				spread[v] = 3*k + uint32(v) // a singleton group
			case 1:
				spread[v] = 4*k + uint32(n) // no group
			default:
				spread[v] = 3 * c
			}
		}
		random := make([]uint32, n)
		for v := range random {
			random[v] = rng.Uint32N(40)
		}
		for _, tc := range []struct {
			name   string
			labels []uint32
			groups int
		}{
			{"pieces", pieces, int(k)},
			{"spread", spread, int(3*k) + n},
			{"random", random, 40},
		} {
			for _, foreign := range []bool{false, true} {
				off, vtx := listing(rng, tc.labels, tc.groups, foreign)
				for _, threads := range []int{1, 2, 7} {
					label := fmt.Sprintf("seed %d, %s, foreign %v, %d threads", seed, tc.name, foreign, threads)
					if _, split := checkComponents(t, label, pool, threads, g, tc.labels, off, vtx); split == 0 && tc.name != "random" && k > 20 {
						t.Fatalf("%s: no disconnected group planted", label)
					}
				}
			}
		}
	}
}

// TestComponentsOnOneGroup: a single group finds the components of the
// subgraph its vertices induce, each named after its smallest vertex,
// though every list runs in descending order so no search starts
// there. Over a whole graph: none in the empty graph, one for an
// isolated vertex or a path, two for two edges, three for a path, an
// edge and an isolated vertex. Over subsets of a path 0-1-2-3 with 4
// hanging off 0: {0,1,2} and {1,2,3} are connected, {0,2} and {3,4}
// are not, and the empty and singleton subsets are.
func TestComponentsOnOneGroup(t *testing.T) {
	hung := [][]uint32{{1, 4}, {0, 2}, {1, 3}, {2}, {0}}
	for _, tc := range []struct {
		name  string
		adj   [][]uint32
		group []uint32
		names []uint32 // of the group's vertices, in list order
		comps int64
	}{
		{"empty graph", nil, nil, nil, 0},
		{"isolated vertex", [][]uint32{{}}, []uint32{0}, []uint32{0}, 1},
		{"path", [][]uint32{{1}, {0, 2}, {1}}, []uint32{2, 1, 0}, []uint32{0, 0, 0}, 1},
		{"two edges", [][]uint32{{1}, {0}, {3}, {2}}, []uint32{3, 2, 1, 0}, []uint32{2, 2, 0, 0}, 2},
		{"path, edge, isolated", [][]uint32{{1}, {0, 2}, {1}, {4}, {3}, {}}, []uint32{5, 4, 3, 2, 1, 0}, []uint32{5, 3, 3, 0, 0, 0}, 3},
		{"subset {0,1,2}", hung, []uint32{2, 1, 0}, []uint32{0, 0, 0}, 1},
		{"subset {0,2}", hung, []uint32{2, 0}, []uint32{2, 0}, 2},
		{"subset {1,2,3}", hung, []uint32{3, 2, 1}, []uint32{1, 1, 1}, 1},
		{"subset {3,4}", hung, []uint32{4, 3}, []uint32{4, 3}, 2},
		{"empty subset", hung, nil, nil, 0},
		{"singleton subset", hung, []uint32{2}, []uint32{2}, 1},
	} {
		g := graph.FromAdjacency(tc.adj)
		n := g.NumVertices()
		labels := make([]uint32, n)
		for v := range labels {
			labels[v] = 1 // no group
		}
		for _, v := range tc.group {
			labels[v] = 0
		}
		off := []uint32{0, uint32(len(tc.group))}
		wantExtra, wantSplit := max(tc.comps-1, 0), min(max(tc.comps-1, 0), 1)
		for _, threads := range []int{1, 2} {
			out := make([]uint32, n)
			extra, split := ComponentsOn(nil, threads, g, labels, off, tc.group, make([]bool, n), make([]uint32, n), out)
			if extra != wantExtra || split != wantSplit {
				t.Fatalf("%s, %d threads: extra %d, split %d; want %d, %d", tc.name, threads, extra, split, wantExtra, wantSplit)
			}
			for i, v := range tc.group {
				if out[v] != tc.names[i] {
					t.Fatalf("%s, %d threads: vertex %d named %d, want %d", tc.name, threads, v, out[v], tc.names[i])
				}
			}
			checkComponents(t, tc.name, nil, threads, g, labels, off, tc.group)
		}
	}
}

// FuzzComponentsMatchesReference decodes a small graph, its labels and
// a listing from the fuzz bytes and holds ComponentsOn to the serial
// reference. data[0] sets the vertex count (below 48), data[1] the
// group count (below 8); then one byte per vertex gives its label in
// its low nibble, where labels past the groups put it in no group, and
// with its top bit set lists it once more in the group its second
// nibble picks, a foreign entry unless that is its own group. The
// remaining bytes are edges, and rot rotates every group's list.
func FuzzComponentsMatchesReference(f *testing.F) {
	f.Add([]byte{6, 2, 0, 0, 0, 1, 1, 1, 0, 1, 1, 2, 3, 4, 4, 5}, uint8(0))
	f.Add([]byte{6, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5}, uint8(1))
	f.Add([]byte{8, 3, 0, 0x91, 2, 1, 0xa0, 2, 1, 0, 0, 7, 1, 2, 3, 4, 5, 6}, uint8(2))
	f.Add([]byte{1, 1, 0}, uint8(0))
	f.Add([]byte{0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		if len(data) < 2 {
			return
		}
		n, groups := int(data[0]%48), int(data[1]%8)
		data = data[2:]
		labels := make([]uint32, n)
		lists := make([][]uint32, groups)
		for v := range labels {
			b := byte(0)
			if v < len(data) {
				b = data[v]
			}
			labels[v] = uint32(b&15) % uint32(groups+2)
			if c := int(labels[v]); c < groups {
				lists[c] = append(lists[c], uint32(v))
			}
			if d := int(b>>4) % max(groups, 1); b&0x80 != 0 && groups > 0 && uint32(d) != labels[v] {
				lists[d] = append(lists[d], uint32(v))
			}
		}
		b := graph.NewBuilder(n)
		for i := n; n > 0 && i+1 < len(data); i += 2 {
			b.AddEdge(uint32(data[i])%uint32(n), uint32(data[i+1])%uint32(n), 1)
		}
		g := b.Build()
		off := make([]uint32, groups+1)
		var vtx []uint32
		for c, l := range lists {
			r := int(rot) % max(len(l), 1)
			vtx = append(append(vtx, l[r:]...), l[:r]...)
			off[c+1] = uint32(len(vtx))
		}
		checkComponents(t, "fuzz", nil, 2, g, labels, off, vtx)
	})
}
