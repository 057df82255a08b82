package graph

// Text graph I/O — the conversion import path. These readers parse and
// validate external formats (Matrix Market, edge lists); the repo's
// own storage format is the gvecsr subpackage's container, which loads
// without parsing. gvecsr.LoadAny dispatches to the readers here for
// non-container inputs, so they remain the way external data enters
// the system.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a MatrixMarket coordinate file (the format the
// SuiteSparse collection distributes, which the paper's loaders consume)
// and returns a symmetric CSR with unit weights for pattern matrices and
// the stored weights otherwise. Directed inputs ("general" symmetry) are
// symmetrized, matching the paper's "we ensure edges to be undirected".
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("graph: unsupported MatrixMarket header %q", sc.Text())
	}
	pattern := header[3] == "pattern"
	// Skip comments; first non-comment line is the size line. A file
	// that ends before declaring its size (header-only input) is
	// corrupt, not an empty graph.
	var rows, cols, nnz int
	haveSize := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("graph: bad MatrixMarket size line %q: %w", line, err)
		}
		haveSize = true
		break
	}
	if !haveSize {
		return nil, fmt.Errorf("graph: MatrixMarket input missing size line")
	}
	if rows < 0 || cols < 0 || nnz < 0 || rows > MaxVertices || cols > MaxVertices {
		return nil, fmt.Errorf("graph: implausible MatrixMarket size line: %d %d %d", rows, cols, nnz)
	}
	n := rows
	if cols > n {
		n = cols
	}
	b := NewBuilder(n)
	for i := 0; i < nnz; {
		if !sc.Scan() {
			return nil, fmt.Errorf("graph: MatrixMarket input truncated at entry %d of %d", i, nnz)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue // blank and comment lines between entries are legal
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: bad MatrixMarket entry %q", line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad row index %q: %w", fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad column index %q: %w", fields[1], err)
		}
		// Coordinates are 1-based: 0 used to underflow to vertex 2³²−1
		// and ids beyond the size line silently grew the vertex set.
		if u < 1 || v < 1 || u > uint64(rows) || v > uint64(cols) {
			return nil, fmt.Errorf("graph: MatrixMarket entry %d: coordinate (%d,%d) outside declared %d×%d matrix", i, u, v, rows, cols)
		}
		w := 1.0
		if !pattern && len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: bad weight %q: %w", fields[2], err)
			}
			if err := checkWeight(w); err != nil {
				return nil, fmt.Errorf("graph: MatrixMarket entry %d: %w", i, err)
			}
		}
		b.AddEdge(uint32(u-1), uint32(v-1), float32(w)) // 1-based → 0-based
		i++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.BuildWith(nil, 0), nil
}

// WriteMatrixMarket writes g as a symmetric coordinate real matrix:
// each undirected edge appears once (lower triangle, 1-based indices),
// so writing and re-reading reproduces the graph exactly.
func WriteMatrixMarket(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	var entries int64
	for i := 0; i < n; i++ {
		es, _ := g.Neighbors(uint32(i))
		for _, e := range es {
			if e <= uint32(i) {
				entries++
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", n, n, entries); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if e > uint32(i) {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", i+1, e+1, ws[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses whitespace-separated "u v [w]" lines (0-based ids,
// '#'-prefixed comments allowed) and returns a symmetric CSR.
func ReadEdgeList(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	b := NewBuilder(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: need at least two fields", lineNo)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %w", lineNo, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %w", lineNo, err)
		}
		// Ids must stay below MaxVertices: 2³²−1 used to wrap the
		// builder's vertex count to zero and panic during placement.
		if u >= MaxVertices || v >= MaxVertices {
			return nil, fmt.Errorf("graph: edge list line %d: vertex id %d exceeds %d", lineNo, max64(u, v), uint32(MaxVertices-1))
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: edge list line %d: %w", lineNo, err)
			}
			if err := checkWeight(w); err != nil {
				return nil, fmt.Errorf("graph: edge list line %d: %w", lineNo, err)
			}
		}
		b.AddEdge(uint32(u), uint32(v), float32(w))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.BuildWith(nil, 0), nil
}

// WriteEdgeList writes each undirected edge once as "u v w".
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if uint32(i) <= e {
				if _, err := fmt.Fprintf(bw, "%d %d %g\n", i, e, ws[k]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// checkWeight rejects edge weights that would poison every downstream
// accumulation: NaN (which defeats even the symmetry validator, since
// all NaN comparisons are false), ±Inf, and magnitudes that overflow
// the float32 the CSR stores (float32(1e60) is +Inf).
func checkWeight(w float64) error {
	if math.IsNaN(w) {
		return fmt.Errorf("weight is NaN")
	}
	if math.IsInf(w, 0) || math.Abs(w) > math.MaxFloat32 {
		return fmt.Errorf("weight %g overflows float32 storage", w)
	}
	return nil
}

// LoadFile loads a graph from path, dispatching on extension: .mtx →
// MatrixMarket, anything else → edge list.
func LoadFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".mtx") {
		return ReadMatrixMarket(f)
	}
	return ReadEdgeList(f)
}
