package main

import (
	"math"
	"path/filepath"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("one sample: %v", got)
	}
}

func pairsOf(metric string, parent, change []float64) []runRecord {
	var runs []runRecord
	for i := range parent {
		runs = append(runs,
			runRecord{Pair: i, Side: "parent", Metrics: map[string]float64{metric: parent[i]}},
			runRecord{Pair: i, Side: "change", Metrics: map[string]float64{metric: change[i]}})
	}
	return runs
}

func TestSummarizeWinsAndBar(t *testing.T) {
	parent := []float64{0.30, 0.31, 0.29, 0.32, 0.30, 0.28, 0.31, 0.30, 0.33, 0.30}
	change := []float64{0.25, 0.26, 0.24, 0.27, 0.25, 0.29, 0.26, 0.25, 0.27, 0.25}
	s := summarize(pairsOf("op_s", parent, change), map[string]string{"op_s": "lower", "modularity": "higher"})["op_s"]
	if s.Wins != 9 || s.Pairs != 10 || !s.Clears {
		t.Fatalf("lower-is-better: %+v", s)
	}
	if math.Abs(s.Parent.Median-0.30) > 1e-12 || math.Abs(s.Change.Median-0.255) > 1e-12 {
		t.Fatalf("medians %v %v", s.Parent.Median, s.Change.Median)
	}

	// Eight wins of ten miss the bar however large the gain.
	change[1] = 0.40
	if s := summarize(pairsOf("op_s", parent, change), map[string]string{"op_s": "lower"})["op_s"]; s.Wins != 8 || s.Clears {
		t.Fatalf("eight wins: %+v", s)
	}

	// Every pair won, but by less than the parent's spread.
	wide := []float64{0.20, 0.40, 0.25, 0.35, 0.30, 0.22, 0.38, 0.28, 0.32, 0.30}
	close := make([]float64, len(wide))
	for i, v := range wide {
		close[i] = v - 0.01
	}
	if s := summarize(pairsOf("op_s", wide, close), map[string]string{"op_s": "lower"})["op_s"]; s.Wins != 10 || s.Clears {
		t.Fatalf("inside the parent's IQR: %+v", s)
	}

	// Higher-is-better counts the other way.
	if s := summarize(pairsOf("modularity", []float64{0.5, 0.5}, []float64{0.6, 0.4}), map[string]string{"modularity": "higher"})["modularity"]; s.Wins != 1 {
		t.Fatalf("higher-is-better wins: %+v", s)
	}
}

func TestSummarizeSkipsIncompletePairs(t *testing.T) {
	runs := pairsOf("op_s", []float64{1, 1, 1}, []float64{0.5, 0.5, 0.5})
	runs[3].Error = "exit status 1" // pair 1's change run
	s := summarize(runs, map[string]string{"op_s": "lower", "setup_s": "lower"})
	if got := s["op_s"]; got.Pairs != 2 || got.Wins != 2 {
		t.Fatalf("op_s over the complete pairs: %+v", got)
	}
	if _, ok := s["setup_s"]; ok {
		t.Fatal("a metric no run reported got a summary")
	}
}

func TestReportAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for i := 0; i < 2; i++ {
		rep, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		rep.Sets = append(rep.Sets, pairSet{Workload: "serve-swap", Seed: uint64(i + 1)})
		if err := save(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "benchpairs" || len(rep.Sets) != 2 || rep.Sets[1].Seed != 2 {
		t.Fatalf("report %+v", rep)
	}
}
