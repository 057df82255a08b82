package main

import (
	"slices"
	"strings"
	"testing"
)

// capturedServeSwap is what `perfbench/run.sh --workload serve-swap
// --seed 1 --seconds 3 --trace 0` printed on a 2-core host, with the
// sample list cut to its first seven swaps.
const capturedServeSwap = `{"record":{"arcs":1007734,"commit":"5a735eeb0cd4ebc9f00fd99d397b8dd1e6746965","fingerprint_deltas":"fc8edd2be4928ed3","fingerprint_graph":"357437877b846f7d","go_version":"go1.24.0","gomaxprocs":2,"host_probe_ms":8.87829,"loadgen_late_p99_ms":12.991839,"num_cpu":2,"op_s_samples":[0.108037409,0.178979056,0.091251641,0.086612001,0.176455177,0.094509283,0.1003503],"reads":627,"rss_reset":true,"seconds":3,"seed":1,"setup_s_samples":[0.591476426,0.604010337,0.611361379],"stale_member_ids":0,"swaps":23,"trace":false,"vertices":500000,"wall_s":5.131295536,"workload":"serve-swap"}}
{"correct":true,"attempted":652,"failed":0,"metrics":{"modularity":{"value":0.9848447246778049,"unit":"Q"},"op_s":{"value":0.112537577,"unit":"s"},"peak_rss_mb":{"value":97.9609375,"unit":"MB"},"setup_s":{"value":0.604010337,"unit":"s"}}}
`

func TestParseRunKeepsSamples(t *testing.T) {
	r, err := parseRun(capturedServeSwap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempted != 652 || r.Failed != 0 || len(r.Metrics) != 4 ||
		r.Metrics["op_s"] != 0.112537577 || r.Metrics["peak_rss_mb"] != 97.9609375 {
		t.Fatalf("metrics line: %+v", r)
	}
	want := []float64{0.108037409, 0.178979056, 0.091251641, 0.086612001, 0.176455177, 0.094509283, 0.1003503}
	if !slices.Equal(r.OpSSamples, want) {
		t.Fatalf("op_s samples %v, want %v", r.OpSSamples, want)
	}

	// A traced run prints its self-time table before the record line.
	lines := strings.SplitN(capturedServeSwap, "\n", 2)
	traced := "layer                                       self_s/op    share\nserve.recompute_s 0.1 50.00%\n" + lines[0] + "\n" + lines[1]
	if r, err := parseRun(traced); err != nil || !slices.Equal(r.OpSSamples, want) || r.Metrics["op_s"] != 0.112537577 {
		t.Fatalf("traced output: %+v, %v", r, err)
	}

	// Without a record line the metrics still parse.
	if r, err := parseRun(lines[1]); err != nil || r.OpSSamples != nil || r.Attempted != 652 {
		t.Fatalf("metrics line alone: %+v, %v", r, err)
	}
	if _, err := parseRun(lines[0]); err == nil {
		t.Fatal("a record line with no metrics line after it parsed")
	}
}
