package main

// metricDef is one reported metric; BENCHMARK.json lists the same names
// and units (metrics_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, printed by untraced runs.
var endToEnd = []metricDef{
	{"op_s", "s"},         // detection (cold-*) or swap (serve-swap), median over ops
	{"modularity", "Q"},   // median over ops or published snapshots
	{"peak_rss_mb", "MB"}, // resident high-water mark during an op, median over ops
	{"setup_s", "s"},      // median of the run's set-up repetitions
}

// perLayer is printed by traced runs. A layer a workload does not run
// reports 0.
var perLayer = []metricDef{
	{"gvecsr.open_s", "s"},
	{"gvecsr.verify_s", "s"},
	{"core.run_s", "s"},
	{"core.move_s", "s"},
	{"core.refine_s", "s"},
	{"core.aggregate_s", "s"},
	{"core.other_s", "s"},
	{"core.unphased_s", "s"},
	{"core.first_pass_share", "ratio"},
	{"core.passes", "count"},
	{"core.iterations", "count"},
	{"core.scanned", "count"},
	{"core.moves", "count"},
	{"core.pruned_share", "ratio"},
	{"core.flat_scan_share", "ratio"},
	{"core.agg_occupancy", "ratio"},
	{"core.alloc_mb", "MB"},
	{"parallel.regions", "count"},
	{"parallel.spawn_regions", "count"},
	{"parallel.steals", "count"},
	{"parallel.steal_success", "ratio"},
	{"parallel.speedup", "ratio"},
	{"core.warm_run_s", "s"},
	{"core.warm_passes", "count"},
	{"core.warm_iterations", "count"},
	{"core.warm_moves", "count"},
	{"stream.apply_s", "s"},
	{"stream.snapshot_s", "s"},
	{"graph.apply_delta_s", "s"},
	{"oracle.check_csr_s", "s"},
	{"oracle.check_partition_s", "s"},
	{"oracle.check_connected_s", "s"},
	{"serve.ingest_ms", "ms"},
	{"serve.recompute_s", "s"},
	{"serve.post_run_s", "s"},
	{"serve.pre_run_s", "s"},
	{"serve.handler_us", "us"},
	{"serve.rejections", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"loadgen.read_p50_ms", "ms"},
	{"loadgen.read_p99_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.ops", "count"},
	{"loadgen.swaps", "count"},
	{"loadgen.reads", "count"},
	{"trace.covered_share", "ratio"},
	{"trace.uncovered_s", "s"},
	{"trace.overhead_share", "ratio"},
	{"error_rate", "ratio"},
	{"host.probe_ms", "ms"},
}

// zeroLayers returns a per-layer map with every metric at 0, for a
// workload to fill in the layers it runs.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
