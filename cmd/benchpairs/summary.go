package main

import (
	"math"
	"sort"
)

// report is the file benchpairs writes: one set per invocation.
type report struct {
	Tool       string    `json:"tool"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Sets       []pairSet `json:"sets"`
}

// pairSet is one invocation: its settings, every run, and the summary.
type pairSet struct {
	Workload string                   `json:"workload"`
	Seed     uint64                   `json:"seed"`
	Seconds  int                      `json:"seconds"`
	Trace    bool                     `json:"trace"`
	Parent   string                   `json:"parent"`
	Change   string                   `json:"change"`
	Started  string                   `json:"started"`
	Runs     []runRecord              `json:"runs"`
	Summary  map[string]metricSummary `json:"summary"`
}

// runRecord is one perfbench run.
type runRecord struct {
	Pair      int                `json:"pair"`
	Side      string             `json:"side"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	// OpSSamples are the run's timed ops in order, from its record
	// line; op_s is their median. On serve-swap, with no rejection,
	// sample i is the swap that published version i+3.
	OpSSamples []float64 `json:"op_s_samples,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// spread is one side's median and quartiles of a metric.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// metricSummary compares one metric over the pairs in which both runs
// succeeded and reported it.
type metricSummary struct {
	Better string `json:"better"`
	Parent spread `json:"parent"`
	Change spread `json:"change"`
	// Wins counts the pairs whose change run is strictly better.
	Wins  int `json:"wins"`
	Pairs int `json:"pairs"`
	// Clears reports a resolved gain: the change won at least nine in
	// ten pairs, and its median is better than the parent's by more than
	// the parent's interquartile range.
	Clears bool `json:"clears"`
}

// summarize compares every metric with a known direction over the
// complete pairs of runs.
func summarize(runs []runRecord, better map[string]string) map[string]metricSummary {
	type pair struct{ parent, change map[string]float64 }
	byPair := map[int]*pair{}
	for _, r := range runs {
		if r.Error != "" {
			continue
		}
		p := byPair[r.Pair]
		if p == nil {
			p = &pair{}
			byPair[r.Pair] = p
		}
		if r.Side == "parent" {
			p.parent = r.Metrics
		} else {
			p.change = r.Metrics
		}
	}
	out := map[string]metricSummary{}
	for name, dir := range better {
		var ps, cs []float64
		wins := 0
		for _, p := range byPair {
			pv, okP := p.parent[name]
			cv, okC := p.change[name]
			if !okP || !okC {
				continue
			}
			ps, cs = append(ps, pv), append(cs, cv)
			if improves(dir, pv, cv) {
				wins++
			}
		}
		if len(ps) == 0 {
			continue
		}
		s := metricSummary{Better: dir, Parent: spreadOf(ps), Change: spreadOf(cs), Wins: wins, Pairs: len(ps)}
		s.Clears = 10*wins >= 9*len(ps) &&
			improves(dir, s.Parent.Median, s.Change.Median) &&
			math.Abs(s.Change.Median-s.Parent.Median) > s.Parent.Q3-s.Parent.Q1
		out[name] = s
	}
	return out
}

// improves reports whether moving from a to b is strictly better in
// direction dir ("lower" or "higher").
func improves(dir string, a, b float64) bool {
	if dir == "higher" {
		return b > a
	}
	return b < a
}

func spreadOf(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// quantile returns the p-quantile of sorted, interpolating linearly
// between the closest ranks (the default of R and NumPy).
func quantile(sorted []float64, p float64) float64 {
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}
