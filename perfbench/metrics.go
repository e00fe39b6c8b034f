package main

// metricDef names one reported metric. The lists below are the single
// source of the names and units; BENCHMARK.json at the repository root
// must list the same names (the self-test checks it).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every
// workload reports every one of them; what an "op" is depends on the
// workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// batchGraphs names the batch workload's graphs in metric names.
var batchGraphs = []string{"stack66", "random2000", "pipegrid1e5"}

// cycletimeCounters are the engine counters reported per 1000 ops.
var cycletimeCounters = []string{
	"full_analyses", "incremental_analyses", "fast_path_answers", "table_answers",
	"pass2_runs", "patch_floods", "slab_pass1", "windowed_pass1",
}

// enginePhases are the tsgserve_engine_phase_seconds phases reported.
var enginePhases = []string{"answer", "pass1", "pass2", "patch", "rows", "slackcert"}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// prints all of them; a layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// Run validity.
		{"driver.lag_p99_ms", "ms"},
		{"driver.sent", "count"},
		{"driver.failed", "count"},
		{"driver.error_rate", "ratio"},
		// The untraced half of the run, by request type.
		{"e2e.read_p50_ms", "ms"},
		{"e2e.read_p99_ms", "ms"},
		{"e2e.write_p50_ms", "ms"},
		{"e2e.write_p99_ms", "ms"},
		{"e2e.analyze_stack66_ms", "ms"},
		{"e2e.analyze_random2000_ms", "ms"},
		{"e2e.analyze_pipegrid1e5_ms", "ms"},
		{"e2e.hier_pipegrid1e5_ms", "ms"},
		{"e2e.mc_samples_per_s", "1/s"},
		// Tracing overhead: traced half versus untraced half.
		{"overhead.p50_ms_pct", "%"},
		{"overhead.p90_ms_pct", "%"},
		{"overhead.capacity_rps_pct", "%"},
		{"overhead.cpu_ms_per_op_pct", "%"},
		// The ledger, timed from outside each layer.
		{"net.read_us_p50", "us"},
		{"net.edit_us_p50", "us"},
		{"cluster.read_self_us_p50", "us"},
		{"cluster.read_self_us_p99", "us"},
		{"cluster.hops_per_read", "count"},
		{"cluster.hedge_win_ratio", "ratio"},
		{"cluster.write_self_us_p50", "us"},
		{"cluster.replication_hops_per_edit", "count"},
		{"serve.read_us_p50", "us"},
		{"serve.read_us_p99", "us"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.edit_us_p50", "us"},
		{"serve.edit_us_p99", "us"},
		{"ledger.read_remainder_pct", "%"},
		{"ledger.edit_remainder_pct", "%"},
		{"store.wal_append_us_p50", "us"},
		{"store.wal_bytes_per_edit", "bytes"},
	}
	for _, c := range cycletimeCounters {
		m = append(m, metricDef{"cycletime." + c, "per_1000_ops"})
	}
	for _, p := range enginePhases {
		m = append(m, metricDef{"cycletime.phase_ms." + p, "ms/1000_ops"})
	}
	for _, g := range batchGraphs {
		m = append(m,
			metricDef{"netlist.parse_ms." + g, "ms"},
			metricDef{"cycletime.compile_ms." + g, "ms"},
			metricDef{"cycletime.pass1_ms." + g, "ms"},
			metricDef{"cycletime.pass2_ms." + g, "ms"},
			metricDef{"timesim.run_from_us." + g, "us"},
			metricDef{"timesim.run_from_window_us." + g, "us"},
		)
	}
	return append(m,
		metricDef{"timesim.run_from_batch_us", "us"},
		metricDef{"hier.compress_ms", "ms"},
		metricDef{"hier.analyze_ms", "ms"},
		metricDef{"hier.compressed_events", "count"},
	)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for defs from vals; names missing from
// vals read 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
