package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

func recorded(t *testing.T) recordedFingerprints {
	t.Helper()
	var rec recordedFingerprints
	if err := json.Unmarshal(fingerprintsJSON, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// BENCHMARK.json at the repository root must describe what the
// benchmark prints: the same workloads, metric names and units.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, code %v", names, want)
		}
	}
	same := func(kind string, js []metric, code []metricDef) {
		if len(js) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(js), len(code))
			return
		}
		for i := range js {
			if js[i].Name != code[i].name || js[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, js[i].Name, js[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
