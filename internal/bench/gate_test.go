package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/parallel"
)

// gateRecord is what the quick-bench gate reads of a baseline e2e record.
type gateRecord struct {
	Dataset    string  `json:"dataset"`
	Vertices   int     `json:"vertices"`
	Threads    int     `json:"threads"`
	BestMs     float64 `json:"best_ms"`
	Modularity float64 `json:"modularity"`
}

func readGateBaseline(t *testing.T) []gateRecord {
	var report struct {
		E2E []gateRecord `json:"e2e"`
	}
	data, err := os.ReadFile("../../BENCH_PR6.json")
	if err == nil {
		err = json.Unmarshal(data, &report)
	}
	if err != nil {
		t.Fatal(err)
	}
	return report.E2E
}

// gateFailures reruns each record at the settings that wrote it: the
// registry at scale 0.15, default options at the record's thread count
// on a dedicated pool, best of 3. A run whose modularity falls more
// than 0.02 below the record's fails, and so, when timed, does a best
// time above 4x the record's.
func gateFailures(logf func(string, ...any), recs []gateRecord, timed bool) (fails []string) {
	if len(recs) == 0 {
		return []string{"baseline holds no e2e records"}
	}
	ds := Registry(0.15)
	for _, r := range recs {
		i := slices.IndexFunc(ds, func(d Dataset) bool { return d.Name == r.Dataset })
		if i < 0 {
			fails = append(fails, r.Dataset+": no registry dataset of that name")
			continue
		}
		g, _ := Load(ds[i])
		if g.NumVertices() != r.Vertices {
			fails = append(fails, fmt.Sprintf("%s: %d vertices, record has %d", r.Dataset, g.NumVertices(), r.Vertices))
			continue
		}
		opt := core.DefaultOptions()
		opt.Threads, opt.Pool = r.Threads, parallel.NewPool(r.Threads)
		best, worstQ := time.Duration(math.MaxInt64), math.Inf(1)
		for range 3 {
			start := time.Now()
			q := core.Leiden(g, opt).Modularity
			best, worstQ = min(best, time.Since(start)), min(worstQ, q)
		}
		opt.Pool.Close()
		ms := float64(best.Microseconds()) / 1000
		logf("%-16s t=%d  %6.1f ms (record %6.1f)  Q %.4f (record %.4f)", r.Dataset, r.Threads, ms, r.BestMs, worstQ, r.Modularity)
		if worstQ < r.Modularity-0.02 {
			fails = append(fails, fmt.Sprintf("%s: modularity %.4f, record %.4f", r.Dataset, worstQ, r.Modularity))
		}
		if timed && ms > 4*r.BestMs {
			fails = append(fails, fmt.Sprintf("%s: best time %.1f ms, record %.1f ms", r.Dataset, ms, r.BestMs))
		}
	}
	return fails
}

// TestQuickBenchGate holds every run's modularity within 0.02 of its
// BENCH_PR6.json record. With GVE_BENCH_GATE=1, as CI's bench-compare
// job sets it, the best time must also stay within 4x of the record's.
func TestQuickBenchGate(t *testing.T) {
	for _, f := range gateFailures(t.Logf, readGateBaseline(t), os.Getenv("GVE_BENCH_GATE") != "") {
		t.Error(f)
	}
}

func TestQuickBenchGateRejects(t *testing.T) {
	rec := readGateBaseline(t)[0]
	for want, mutate := range map[string]func(*gateRecord){
		"no registry dataset": func(r *gateRecord) { r.Dataset += "-renamed" },
		"vertices":            func(r *gateRecord) { r.Vertices++ },
		"modularity":          func(r *gateRecord) { r.Modularity += 0.03 },
		"best time":           func(r *gateRecord) { r.BestMs /= 1000 },
	} {
		t.Run(want, func(t *testing.T) {
			r := rec
			mutate(&r)
			if fails := gateFailures(t.Logf, []gateRecord{r}, true); !strings.Contains(strings.Join(fails, "\n"), want) {
				t.Errorf("gate failures %q name no %q", fails, want)
			}
		})
	}
	if len(gateFailures(t.Logf, nil, false)) == 0 {
		t.Error("gate passed an empty baseline")
	}
}
