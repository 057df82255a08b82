// Command gveconvert turns graph datasets into gvecsr containers — the
// mmap-able binary CSR format specified in FORMAT.md — and inspects
// existing containers. Convert once, then every run of gveleiden,
// gveserve or the benchmarks memory-maps the result in milliseconds
// instead of re-parsing text.
//
//	gveconvert -i graph.mtx -o graph.gvecsr            # convert
//	gveconvert -i big.txt -o big.gvecsr -compress      # varint gap adjacency
//	gveconvert -i g.mtx -o g.gvecsr -perm degree       # relabel by degree desc
//	gveconvert -gen er -n 1000000 -o er.gvecsr         # streamed generation
//	gveconvert -gen road -n 4000000 -seed 7 -o r.gvecsr
//	gveconvert -inspect graph.gvecsr                   # header + checksums
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
	"gveleiden/internal/order"
	"gveleiden/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gveconvert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input    = fs.String("i", "", "input graph file (.gvecsr, .mtx, or edge list)")
		output   = fs.String("o", "", "output container path")
		genName  = fs.String("gen", "", "generate input instead: er|social|web|road|kmer")
		n        = fs.Int("n", 1000000, "vertices for generated input")
		seed     = fs.Uint64("seed", 1, "generator seed")
		deg      = fs.Float64("deg", 8, "average degree for -gen er")
		compress = fs.Bool("compress", false, "varint gap-encode the adjacency (FORMAT.md §3)")
		permName = fs.String("perm", "", "relabel vertices before writing: degree (descending, stored in the perm section)")
		inspect  = fs.Bool("inspect", false, "inspect containers given as positional arguments instead of converting")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *inspect {
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "gveconvert: -inspect needs container paths as arguments")
			return 2
		}
		ok := true
		for _, path := range fs.Args() {
			h, checks, err := gvecsr.Inspect(path)
			if err != nil {
				fmt.Fprintf(stderr, "gveconvert: %s: %v\n", path, err)
				ok = false
				continue
			}
			gvecsr.WriteInspection(stdout, path, h, checks)
			for _, c := range checks {
				if !c.OK {
					ok = false
				}
			}
		}
		if !ok {
			return 1
		}
		return 0
	}

	if *output == "" || (*input == "") == (*genName == "") {
		fmt.Fprintln(stderr, "gveconvert: need -o OUT and exactly one of -i FILE or -gen NAME (or -inspect FILE...)")
		return 2
	}
	if err := convert(*input, *genName, *n, *seed, *deg, *output, *compress, *permName, stdout); err != nil {
		fmt.Fprintf(os.Stderr, "gveconvert: %v\n", err)
		return 1
	}
	return 0
}

func convert(input, genName string, n int, seed uint64, deg float64, output string, compress bool, permName string, stdout io.Writer) error {
	var g *graph.CSR
	switch {
	case input != "":
		f, err := gvecsr.LoadAny(input)
		if err != nil {
			return err
		}
		g, err = f.Graph()
		if err != nil {
			return err
		}
	case genName == "er":
		// Erdős–Rényi is not one of the paper's four classes but is the
		// cheapest checksum-heavy CI workload; stream it like the rest.
		g = graph.BuildStream(n, gen.StreamedER(n, deg, seed))
	default:
		g, _ = gen.BuildStreamedClass(genName, n, seed, parallel.Default(), parallel.DefaultThreads())
		if g == nil {
			return fmt.Errorf("unknown generator %q (er|social|web|road|kmer)", genName)
		}
	}

	opts := gvecsr.WriteOptions{GapAdjacency: compress}
	switch permName {
	case "":
	case "degree":
		perm := order.ByDegreeDescCounting(g)
		pg, err := graph.PermuteWith(parallel.Default(), parallel.DefaultThreads(), g, perm)
		if err != nil {
			return err
		}
		g = pg
		opts.Permutation = perm
	default:
		return fmt.Errorf("unknown -perm %q (want: degree)", permName)
	}

	if err := gvecsr.WriteFile(output, g, opts); err != nil {
		return err
	}
	st, err := os.Stat(output)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: |V|=%d |E|=%d, %d bytes (compress=%v perm=%q)\n",
		output, g.NumVertices(), g.NumUndirectedEdges(), st.Size(), compress, permName)
	return nil
}
