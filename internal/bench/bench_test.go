package bench

import (
	"strings"
	"testing"
	"time"

	"gveleiden/internal/quality"
)

func tinyConfig() Config {
	return Config{Scale: 0.04, Repeats: 1, Threads: 2, MaxThreads: 2}
}

func TestRegistryBuildsThirteenValidDatasets(t *testing.T) {
	ds := Registry(0.04)
	if len(ds) != 13 {
		t.Fatalf("registry has %d datasets, want 13 (Table 2)", len(ds))
	}
	classes := map[string]int{}
	for _, d := range ds {
		g, _ := Load(d)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if g.NumVertices() < 32 {
			t.Errorf("%s: suspiciously small (%d vertices)", d.Name, g.NumVertices())
		}
		classes[d.Class]++
	}
	if classes["web"] != 7 || classes["social"] != 2 || classes["road"] != 2 || classes["kmer"] != 2 {
		t.Fatalf("class distribution %v does not match Table 2", classes)
	}
}

func TestLoadCaches(t *testing.T) {
	ds := Registry(0.04)
	a, _ := Load(ds[0])
	b, _ := Load(ds[0])
	if a != b {
		t.Fatal("Load must memoize")
	}
	ClearCache()
	c, _ := Load(ds[0])
	if a == c {
		t.Fatal("ClearCache must drop memoized graphs")
	}
	if big, _ := Load(Registry(0.15)[0]); big.NumVertices() <= c.NumVertices() {
		t.Fatalf("Load at scale 0.15 returned %d vertices after scale 0.04's %d", big.NumVertices(), c.NumVertices())
	}
	ClearCache()
}

func TestDatasetClassesHaveExpectedDegrees(t *testing.T) {
	defer ClearCache()
	for _, d := range Registry(0.1) {
		g, _ := Load(d)
		_, _, avg := g.DegreeStats()
		switch d.Class {
		case "road", "kmer":
			if avg > 3 {
				t.Errorf("%s: avg degree %.1f, want ≈2.1", d.Name, avg)
			}
		case "web", "social":
			if avg < 6 {
				t.Errorf("%s: avg degree %.1f too low for its class", d.Name, avg)
			}
		}
	}
}

func TestDetectorsRunAndAgree(t *testing.T) {
	defer ClearCache()
	ds := Registry(0.04)
	g, _ := Load(ds[0])
	dets := Detectors(2)
	if len(dets) != 5 {
		t.Fatalf("got %d detectors, want 5", len(dets))
	}
	var qGVE float64
	for _, det := range dets {
		memb := det.Run(g)
		if err := quality.ValidatePartition(g, memb); err != nil {
			t.Errorf("%s: %v", det.Name, err)
		}
		if det.Name == "GVE-Leiden" {
			qGVE = quality.Modularity(g, memb)
		}
	}
	if qGVE <= 0.2 {
		t.Fatalf("GVE-Leiden Q = %.3f on corpus graph", qGVE)
	}
	lous := LouvainDetectors(2)
	if len(lous) != 2 {
		t.Fatalf("got %d louvain detectors", len(lous))
	}
	for _, det := range lous {
		if err := quality.ValidatePartition(g, det.Run(g)); err != nil {
			t.Errorf("%s: %v", det.Name, err)
		}
	}
}

func TestMeasureAverages(t *testing.T) {
	calls := 0
	d, out := Measure(3, func() []uint32 {
		calls++
		time.Sleep(time.Millisecond)
		return []uint32{1}
	})
	if calls != 3 {
		t.Fatalf("measure ran %d times, want 3", calls)
	}
	if d < time.Millisecond/2 {
		t.Fatalf("mean duration %v too small", d)
	}
	if len(out) != 1 {
		t.Fatal("measure must return the last result")
	}
	if _, out := Measure(0, func() []uint32 { return nil }); out != nil {
		t.Fatal("measure with repeats<1 must still run once")
	}
}

func TestExperimentRunnersProduceReports(t *testing.T) {
	defer ClearCache()
	cfg := tinyConfig()
	cmp := RunComparison(cfg)
	if len(cmp) != 13 {
		t.Fatalf("comparison covered %d graphs", len(cmp))
	}
	for name, tables := range map[string][]Table{
		"fig6":   Fig6(cmp),
		"table1": Table1(cmp),
		"fig12":  Fig1And2(cfg),
		"fig34":  Fig3And4(cfg),
		"table2": Table2(cfg),
		"fig7":   Fig7(cfg),
		"fig8":   Fig8(cfg),
		"fig9":   Fig9(cfg),
		"qual":   Fig8Quality(cfg),
	} {
		report := RenderAll(tables)
		if len(report) < 100 {
			t.Errorf("%s: report suspiciously short:\n%s", name, report)
		}
		if !strings.Contains(report, "\n") {
			t.Errorf("%s: report is not a table", name)
		}
		for _, tb := range tables {
			if tb.ID == "" || tb.Title == "" || len(tb.Header) == 0 || len(tb.Rows) == 0 {
				t.Errorf("%s: incomplete table %+v", name, tb.ID)
			}
			csvData, err := tb.CSV()
			if err != nil {
				t.Errorf("%s/%s: CSV render: %v", name, tb.ID, err)
			}
			if lines := strings.Count(csvData, "\n"); lines != len(tb.Rows)+1 {
				t.Errorf("%s/%s: CSV has %d lines, want %d", name, tb.ID, lines, len(tb.Rows)+1)
			}
		}
	}
}

func TestComparisonShapes(t *testing.T) {
	// The headline claims of the paper, at tiny scale: GVE-Leiden is the
	// fastest Leiden, and it emits no disconnected communities.
	defer ClearCache()
	cfg := tinyConfig()
	cmp := RunComparison(cfg)
	fasterCount := 0
	total := 0
	for _, r := range cmp {
		if r.Disconnected["GVE-Leiden"] != 0 {
			t.Errorf("%s: GVE-Leiden disconnected fraction %v", r.Graph, r.Disconnected["GVE-Leiden"])
		}
		for _, other := range []string{"Original", "igraph", "NetworKit", "cuGraph"} {
			total++
			if r.Runtime["GVE-Leiden"] < r.Runtime[other] {
				fasterCount++
			}
		}
	}
	if raceEnabled {
		// Race instrumentation makes atomics ~10× more expensive,
		// penalizing exactly the implementation under test; only the
		// correctness shape is meaningful in this build.
		t.Logf("race build: skipping speed-shape assertion (%d/%d matchups won)", fasterCount, total)
		return
	}
	if fasterCount < total*3/4 {
		t.Errorf("GVE-Leiden faster in only %d/%d matchups", fasterCount, total)
	}
}

func TestDescribe(t *testing.T) {
	defer ClearCache()
	ds := Registry(0.04)
	g, _ := Load(ds[0])
	s := Describe(ds[0].Name, g)
	if !strings.Contains(s, ds[0].Name) || !strings.Contains(s, "|V|=") {
		t.Fatalf("describe = %q", s)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Scale != 1 || c.Repeats < 1 {
		t.Fatal("bad default config")
	}
}

func TestFig9NonPowerOfTwoMaxThreads(t *testing.T) {
	defer ClearCache()
	cfg := tinyConfig()
	cfg.MaxThreads = 3 // sweep must be 1, 2, 3
	tables := Fig9(cfg)
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("sweep rows = %d, want 3", len(rows))
	}
	if rows[2][0] != "3" {
		t.Fatalf("last sweep point = %s, want 3", rows[2][0])
	}
}

func TestMemoryExperimentShape(t *testing.T) {
	defer ClearCache()
	tables := MemoryExperiment(tinyConfig())
	if len(tables) != 1 || len(tables[0].Rows) != 4 {
		t.Fatalf("memory experiment must cover the 4 picked graphs, got %d rows", len(tables[0].Rows))
	}
}

func TestComplexityExperimentShape(t *testing.T) {
	defer ClearCache()
	cfg := tinyConfig()
	tables := ComplexityExperiment(cfg)
	if len(tables[0].Rows) != 5 {
		t.Fatalf("complexity sweep rows = %d, want 5", len(tables[0].Rows))
	}
}

func TestLPAExperimentShape(t *testing.T) {
	defer ClearCache()
	tables := LPAExperiment(tinyConfig())
	if len(tables[0].Rows) != 13 {
		t.Fatalf("LPA rows = %d, want 13", len(tables[0].Rows))
	}
}
