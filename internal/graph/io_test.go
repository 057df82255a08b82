package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func graphsEqual(a, b *CSR) bool {
	a, b = a.Compact(), b.Compact()
	if a.NumVertices() != b.NumVertices() || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || a.Weights[i] != b.Weights[i] {
			return false
		}
	}
	return true
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := FromAdjacency([][]uint32{
		{1, 2}, {0, 2}, {0, 1, 3}, {2},
	})
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	r, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric storage writes each edge once; the round trip is exact.
	if !graphsEqual(g, r) {
		t.Fatal("MatrixMarket round trip changed the graph")
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a comment
3 3 2
1 2
2 3
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumUndirectedEdges() != 2 {
		t.Fatalf("n=%d e=%d", g.NumVertices(), g.NumUndirectedEdges())
	}
	if g.ArcWeight(0, 1) != 1 {
		t.Fatal("pattern weights must default to 1")
	}
}

func TestMatrixMarketWeighted(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 1
1 2 2.5
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.ArcWeight(0, 1) != 2.5 || g.ArcWeight(1, 0) != 2.5 {
		t.Fatal("weighted entry lost")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate real general\nnot a size line\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 5\n1 2 1\n", // truncated
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n",
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromAdjacency([][]uint32{{1, 2}, {0}, {0, 3}, {2}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	r, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, r) {
		t.Fatal("edge-list round trip changed the graph")
	}
}

func TestEdgeListCommentsAndErrors(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\n% other comment\n\n0 1\n1 2 2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumUndirectedEdges() != 2 || g.ArcWeight(1, 2) != 2.5 {
		t.Fatal("edge list parse wrong")
	}
	for i, in := range []string{"0\n", "a b\n", "0 b\n", "0 1 w\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad edge list accepted", i)
		}
	}
}

func TestLoadFileDispatch(t *testing.T) {
	dir := t.TempDir()
	g := FromAdjacency([][]uint32{{1}, {0, 2}, {1}})

	mtx := filepath.Join(dir, "g.mtx")
	f, err := os.Create(mtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixMarket(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadFile(mtx); err != nil {
		t.Fatalf("mtx load: %v", err)
	}

	txt := filepath.Join(dir, "g.txt")
	f, err = os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadFile(txt); err != nil {
		t.Fatalf("edge list load: %v", err)
	}

	if _, err := LoadFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// The cases below are regression tests for parser bugs surfaced by the
// oracle fuzz harness (each input used to panic or silently mis-parse).

func TestMatrixMarketHeaderCaseInsensitive(t *testing.T) {
	in := "%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n2 2 1\n1 2 1.5\n"
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatalf("upper-case header rejected: %v", err)
	}
	if g.ArcWeight(0, 1) != 1.5 {
		t.Fatal("entry lost")
	}
}

func TestMatrixMarketBlankAndCommentLinesBetweenEntries(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n3 3 2\n\n1 2 1\n% interleaved comment\n\n2 3 2\n"
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatalf("blank/comment lines between entries rejected: %v", err)
	}
	if g.NumUndirectedEdges() != 2 || g.ArcWeight(1, 2) != 2 {
		t.Fatal("entries around blank lines mis-parsed")
	}
}

func TestMatrixMarketRejectsBadCoordinates(t *testing.T) {
	cases := map[string]string{
		"zero row":         "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
		"zero column":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 0 1.0\n",
		"row beyond size":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",
		"col beyond size":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 5 1.0\n",
		"both beyond size": "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n",
	}
	for name, in := range cases {
		if g, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted (n=%d)", name, g.NumVertices())
		}
	}
}

func TestMatrixMarketRejectsBadSizeLine(t *testing.T) {
	cases := map[string]string{
		"negative sizes":    "%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n",
		"missing size line": "%%MatrixMarket matrix coordinate real general\n",
		"comments only":     "%%MatrixMarket matrix coordinate real general\n% nothing else\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParsersRejectNonFiniteWeights(t *testing.T) {
	for _, in := range []string{"0 1 NaN\n", "0 1 +Inf\n", "0 1 -Inf\n", "0 1 1e60\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("edge list %q accepted", in)
		}
	}
	for _, w := range []string{"NaN", "Inf", "1e60"} {
		in := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 " + w + "\n"
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("MatrixMarket weight %s accepted", w)
		}
	}
}

func TestEdgeListRejectsHugeIDs(t *testing.T) {
	// 2³²−1 used to wrap Builder's vertex count to zero and panic;
	// anything ≥ MaxVertices is out of the 32-bit id contract.
	for _, in := range []string{"4294967295 1\n", "1 4294967295\n", "2147483648 0\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("edge list %q accepted", in)
		}
	}
}

// TestLoadFileRejectsLegacyBinary: the pre-container binary dump
// (magic "GVEC", vertex and arc counts, then offsets, targets and
// weights as little-endian 32-bit words) is no longer a format, so a
// .bin file in that layout fails to load instead of parsing as a graph.
func TestLoadFileRejectsLegacyBinary(t *testing.T) {
	g := FromAdjacency([][]uint32{{1}, {0, 2}, {1}})
	var buf bytes.Buffer
	words := []uint32{0x47564543, uint32(g.NumVertices()), uint32(len(g.Edges))}
	words = append(words, g.Offsets...)
	words = append(words, g.Edges...)
	for _, w := range g.Weights {
		words = append(words, math.Float32bits(w))
	}
	if err := binary.Write(&buf, binary.LittleEndian, words); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadFile(path); err == nil {
		t.Fatalf("a legacy binary file loaded as a %d-vertex graph", got.NumVertices())
	}
}
