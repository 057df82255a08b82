package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"math/rand/v2"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
	"gveleiden/internal/serve"
)

// Workload sizes. Every input is a function of the seed and these
// constants; the recorded fingerprints (fingerprints.json) pin them for
// the default seed.
const (
	threads = 2 // detection threads: the benchmark host's core count

	// serveClass is serve-swap's graph class. Its modularity repeats
	// across runs and across seeds (±3·10⁻⁴ over seeds 1-5 at 10⁵
	// vertices), where the web class spans 0.74-0.85 over the same seeds
	// and the social class swings run to run.
	serveClass = "kmer"

	socialN = 500_000   // cold-social vertices (streamed social class, ≈8M arcs)
	roadN   = 2_000_000 // cold-road requested vertices (≈ rows·cols of the lattice)
	serveN  = 500_000   // serve-swap vertices (streamed kmer class, ≈1M arcs)

	deltaBatches = 160 // pre-generated serve-swap batches, more than a run can fold
	batchIns     = 500 // insertions per batch, newVerts·2 of them attaching new vertices
	batchDel     = 500 // deletions per batch
	newVerts     = 2   // vertices added per batch
)

// generate builds the named streamed class on p.
func generate(class string, n int, seed uint64, p *parallel.Pool) (*graph.CSR, error) {
	g, _ := gen.BuildStreamedClass(class, n, seed, p, threads)
	if g == nil {
		return nil, fmt.Errorf("unknown graph class %q", class)
	}
	return g, nil
}

// fingerprinter is a 64-bit content hash made of two independent
// CRC-32s (Castagnoli and IEEE), both hardware-accelerated, so hashing
// a 16M-arc graph stays well under a tenth of a second.
type fingerprinter struct {
	a, b hash.Hash32
	buf  []byte
}

func newFingerprinter() *fingerprinter {
	return &fingerprinter{
		a:   crc32.New(crc32.MakeTable(crc32.Castagnoli)),
		b:   crc32.NewIEEE(),
		buf: make([]byte, 0, 1<<16),
	}
}

func (f *fingerprinter) write(p []byte) {
	f.a.Write(p)
	f.b.Write(p)
}

func (f *fingerprinter) u32s(xs []uint32) {
	f.u64(uint64(len(xs)))
	for len(xs) > 0 {
		k := min(len(xs), cap(f.buf)/4)
		f.buf = f.buf[:0]
		for _, x := range xs[:k] {
			f.buf = binary.LittleEndian.AppendUint32(f.buf, x)
		}
		f.write(f.buf)
		xs = xs[k:]
	}
}

func (f *fingerprinter) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	f.write(b[:])
}

func (f *fingerprinter) sum() string {
	return fmt.Sprintf("%08x%08x", f.a.Sum32(), f.b.Sum32())
}

// weightBits views float32 weights as their IEEE-754 bits.
func weightBits(ws []float32) []uint32 {
	out := make([]uint32, len(ws))
	for i, w := range ws {
		out[i] = math.Float32bits(w)
	}
	return out
}

// graphFingerprint hashes a compact CSR's offsets, targets and weights.
func graphFingerprint(g *graph.CSR) string {
	m := g.Offsets[len(g.Offsets)-1]
	f := newFingerprinter()
	f.u32s(g.Offsets)
	f.u32s(g.Edges[:m])
	f.u32s(weightBits(g.Weights[:m]))
	return f.sum()
}

// batch is one serve-swap delta: the edges, the POST /delta body, and
// the vertex and edge counts the graph has once it is applied.
type batch struct {
	ins, del []graph.Edge
	body     []byte
	vertices int
	edges    int64
}

// deltaFingerprint hashes a delta sequence's edges in order.
func deltaFingerprint(bs []batch) string {
	f := newFingerprinter()
	for _, b := range bs {
		for _, es := range [][]graph.Edge{b.del, b.ins} {
			f.u64(uint64(len(es)))
			for _, e := range es {
				f.u32s([]uint32{e.U, e.V, math.Float32bits(e.W)})
			}
		}
	}
	return f.sum()
}

// deltaSequence generates count batches that are valid by construction
// against the graph as it evolves from g: each deletes batchDel
// distinct edges present at that point (never a self-loop) and inserts
// batchIns pairs that are absent and have never been present, two of
// them for each of the newVerts vertices it adds. It uses its own PRNG,
// not the program's, so the sequence depends on the seed alone.
func deltaSequence(g *graph.CSR, seed uint64, count int) ([]batch, error) {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	n := g.NumVertices()
	present := make([]uint64, 0, g.NumArcs()/2+1)
	where := make(map[uint64]int, g.NumArcs()/2+1)
	ever := make(map[uint64]struct{}, g.NumArcs()/2+int64(count*batchIns)+1)
	for u := 0; u < n; u++ {
		es, _ := g.Neighbors(uint32(u))
		for _, v := range es {
			if v < uint32(u) {
				continue
			}
			k := graph.PairKey(uint32(u), v)
			where[k] = len(present)
			present = append(present, k)
			ever[k] = struct{}{}
		}
	}
	edges := g.NumUndirectedEdges()
	remove := func(i int) {
		k := present[i]
		last := present[len(present)-1]
		present[i] = last
		where[last] = i
		present = present[:len(present)-1]
		delete(where, k)
	}
	insert := func(u, v uint32, out []graph.Edge) []graph.Edge {
		k := graph.PairKey(u, v)
		where[k] = len(present)
		present = append(present, k)
		ever[k] = struct{}{}
		return append(out, graph.Edge{U: u, V: v, W: 1})
	}
	bs := make([]batch, 0, count)
	for b := 0; b < count; b++ {
		del := make([]graph.Edge, 0, batchDel)
		for len(del) < batchDel {
			if len(present) == 0 {
				return nil, fmt.Errorf("batch %d: no edge left to delete", b)
			}
			i := r.IntN(len(present))
			k := present[i]
			u, v := uint32(k>>32), uint32(k)
			if u == v {
				continue
			}
			remove(i)
			del = append(del, graph.Edge{U: u, V: v})
		}
		ins := make([]graph.Edge, 0, batchIns)
		for j := 0; j < newVerts; j++ {
			nv := uint32(n)
			n++
			for len(ins) < 2*(j+1) {
				u := uint32(r.IntN(n - 1))
				if _, seen := ever[graph.PairKey(u, nv)]; !seen {
					ins = insert(u, nv, ins)
				}
			}
		}
		for len(ins) < batchIns {
			u, v := uint32(r.IntN(n)), uint32(r.IntN(n))
			if u == v {
				continue
			}
			if _, seen := ever[graph.PairKey(u, v)]; seen {
				continue
			}
			ins = insert(u, v, ins)
		}
		edges += int64(len(ins) - len(del))
		body, err := json.Marshal(deltaRequest(ins, del))
		if err != nil {
			return nil, err
		}
		bs = append(bs, batch{ins: ins, del: del, body: body, vertices: n, edges: edges})
	}
	return bs, nil
}

func deltaRequest(ins, del []graph.Edge) serve.DeltaRequest {
	req := serve.DeltaRequest{
		Insertions: make([]serve.EdgeUpdate, len(ins)),
		Deletions:  make([]serve.EdgeUpdate, len(del)),
	}
	for i, e := range ins {
		req.Insertions[i] = serve.EdgeUpdate{U: e.U, V: e.V, W: e.W}
	}
	for i, e := range del {
		req.Deletions[i] = serve.EdgeUpdate{U: e.U, V: e.V}
	}
	return req
}
