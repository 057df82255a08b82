// Command communities analyzes a community assignment against its
// graph: per-partition quality (modularity, coverage, performance,
// conductance), community-size distribution, and the
// internally-disconnected-community check of the paper's Figure 6(d).
//
//	communities -g graph.mtx -m membership.txt      # analyze a saved run
//	communities -g graph.mtx                        # run GVE-Leiden first
//	communities -g graph.mtx -top 10                # largest communities
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"gveleiden/internal/core"
	"gveleiden/internal/graph/gvecsr"
	"gveleiden/internal/quality"
)

func main() {
	var (
		graphPath = flag.String("g", "", "graph file (.gvecsr, .mtx, or edge list)")
		membPath  = flag.String("m", "", "membership file ('vertex community' lines); empty = run GVE-Leiden")
		top       = flag.Int("top", 5, "show the N largest communities")
		threads   = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "communities: need -g GRAPH")
		os.Exit(2)
	}
	gf, err := gvecsr.LoadAny(*graphPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "communities: %v\n", err)
		os.Exit(1)
	}
	g, err := gf.Graph()
	if err != nil {
		fmt.Fprintf(os.Stderr, "communities: %v\n", err)
		os.Exit(1)
	}
	var membership []uint32
	if *membPath != "" {
		membership, err = readMembership(*membPath, g.NumVertices())
		if err != nil {
			fmt.Fprintf(os.Stderr, "communities: %v\n", err)
			os.Exit(1)
		}
	} else {
		opt := core.DefaultOptions()
		opt.Threads = *threads
		membership = core.Leiden(g, opt).Membership
		fmt.Println("(no -m given: communities detected with GVE-Leiden)")
	}

	pm := quality.AnalyzePartition(g, membership)
	fmt.Printf("graph: |V|=%d |E|=%d\n", g.NumVertices(), g.NumUndirectedEdges())
	fmt.Printf("communities:     %d\n", pm.Communities)
	fmt.Printf("modularity:      %.6f\n", pm.Modularity)
	fmt.Printf("coverage:        %.4f\n", pm.Coverage)
	fmt.Printf("performance:     %.4f\n", pm.Performance)
	fmt.Printf("conductance:     avg %.4f  max %.4f\n", pm.AvgConductance, pm.MaxConductance)
	fmt.Printf("sizes:           min %d  median %d  max %d\n", pm.MinSize, pm.MedianSize, pm.MaxSize)
	fmt.Printf("disconnected:    %d", pm.Disconnected)
	if pm.Disconnected == 0 {
		fmt.Printf("  ✓ (the Leiden guarantee)")
	}
	fmt.Println()

	hist := quality.SizeHistogram(membership)
	fmt.Println("\nsize distribution (2^k buckets):")
	for b, c := range hist {
		if c == 0 {
			continue
		}
		fmt.Printf("  %6d-%-6d %d\n", 1<<b, 1<<(b+1)-1, c)
	}

	ms := quality.AnalyzeCommunities(g, membership)
	sort.Slice(ms, func(a, b int) bool { return ms[a].Size > ms[b].Size })
	if *top > len(ms) {
		*top = len(ms)
	}
	fmt.Printf("\n%d largest communities:\n", *top)
	fmt.Println("  id      size    internal  cut     density  conductance  connected")
	for _, m := range ms[:*top] {
		fmt.Printf("  %-7d %-7d %-9.1f %-7.1f %-8.4f %-12.4f %v\n",
			m.ID, m.Size, m.Internal, m.Cut, m.Density, m.Conductance, m.Connected)
	}
}

func readMembership(path string, n int) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return quality.ReadPartition(f, n)
}
