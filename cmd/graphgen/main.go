// Command graphgen emits the synthetic benchmark corpus (or a single
// generated graph) to files, so experiments can be repeated against
// fixed inputs or fed to other tools.
//
//	graphgen -corpus -dir data/           # write all 13 corpus graphs
//	graphgen -gen web -n 50000 -o web.mtx # one graph, Matrix Market
//	graphgen -gen road -n 50000 -o road.gvecsr # mmap-able binary container
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gveleiden/internal/bench"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
)

func main() {
	var (
		corpus  = flag.Bool("corpus", false, "emit the full 13-graph benchmark corpus")
		dir     = flag.String("dir", ".", "output directory for -corpus")
		scale   = flag.Float64("scale", 1.0, "corpus size multiplier")
		genName = flag.String("gen", "", "single graph: web|social|road|kmer|er|ba|rmat|grid")
		n       = flag.Int("n", 100000, "vertices")
		seed    = flag.Uint64("seed", 1, "generator seed")
		out     = flag.String("o", "", "output file for -gen")
		format  = flag.String("format", "", "mtx|edges|gvecsr (default from -o extension)")
	)
	flag.Parse()

	if *corpus {
		if err := emitCorpus(*dir, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *genName == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: need -corpus, or -gen NAME with -o FILE")
		os.Exit(2)
	}
	g, err := build(*genName, *n, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	if err := write(g, *out, *format); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: |V|=%d |E|=%d\n", *out, g.NumVertices(), g.NumUndirectedEdges())
}

func emitCorpus(dir string, scale float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range bench.Registry(scale) {
		g, _ := bench.Load(d)
		path := filepath.Join(dir, d.Name+".mtx")
		if err := write(g, path, "mtx"); err != nil {
			return err
		}
		fmt.Println(bench.Describe(d.Name, g))
	}
	return nil
}

func build(name string, n int, seed uint64) (*graph.CSR, error) {
	switch name {
	case "web":
		g, _ := gen.WebGraph(n, 20, seed)
		return g, nil
	case "social":
		g, _ := gen.SocialNetwork(n, 20, 64, 0.35, seed)
		return g, nil
	case "road":
		g, _ := gen.RoadNetwork(n, seed)
		return g, nil
	case "kmer":
		g, _ := gen.KmerGraph(n, seed)
		return g, nil
	case "er":
		return gen.ErdosRenyi(n, n*8, seed), nil
	case "ba":
		return gen.BarabasiAlbert(n, 8, seed), nil
	case "rmat":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return gen.RMAT(scale, n*8, 0, 0, 0, seed), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return gen.Grid(side, side), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", name)
	}
}

func write(g *graph.CSR, path, format string) error {
	if format == "" {
		switch {
		case strings.HasSuffix(path, ".mtx"):
			format = "mtx"
		case strings.HasSuffix(path, gvecsr.Ext):
			format = "gvecsr"
		default:
			format = "edges"
		}
	}
	if format == "gvecsr" {
		return gvecsr.WriteFile(path, g, gvecsr.WriteOptions{})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "mtx":
		return graph.WriteMatrixMarket(f, g)
	case "edges":
		return graph.WriteEdgeList(f, g)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
