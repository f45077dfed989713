package main

// metric is one reported number. An untraced run computes the
// end-to-end metrics, a traced run (--trace 1) the per-layer ones; the
// contract metrics among them are those BENCHMARK.json lists and the
// result line carries (main_test.go keeps the two equal). A change in a
// contract metric is judged as a share of its value, so the contract
// holds only numbers that are never 0 on any workload. The others
// appear in the report only: per-layer times and counts that read 0 on
// a workload that bypasses their layer, numbers that move between runs
// by more than any bound (bound_slack_pct_min is a minimum over the
// prefix; peak RSS follows GC timing), and the failure counts, which
// the result line carries as attempted and failed.
type metric struct {
	Name     string
	Unit     string
	Better   string // "higher" or "lower"
	Traced   bool
	Contract bool
}

// list names the BENCHMARK.json list a contract metric belongs to.
func (m metric) list() string {
	if m.Traced {
		return "per_layer"
	}
	return "end_to_end"
}

// catalogue holds every metric in report order.
var catalogue = []metric{
	{"setup_s", "s", "lower", false, true},
	{"scenarios_per_s", "1/s", "higher", false, true},
	{"scenario_ms_p50", "ms", "lower", false, true},
	{"scenario_ms_tail", "ms", "lower", false, true},
	{"sim_events_per_s", "1/s", "higher", false, true},
	{"peak_rss_mb", "MB", "lower", false, false},
	{"detect_latency_ms_p50", "sim_ms", "lower", false, true},
	{"detect_latency_ms_tail", "sim_ms", "lower", false, true},
	{"bound_slack_pct_min", "%", "higher", false, false},
	{"failed_frac", "ratio", "lower", false, false},
	{"false_convictions", "count", "lower", false, false},
	{"setup_cold_s", "s", "lower", false, false},
	{"cpu_share", "ratio", "higher", false, false},
	{"ref_loop_us", "us", "lower", false, false},

	{"des.run_s", "s", "lower", true, true},
	{"des.ns_per_event", "ns", "lower", true, true},
	{"des.events", "count", "lower", true, true},
	{"des.procs", "count", "lower", true, true},
	{"des.switches", "count", "lower", true, true},
	{"des.self_s", "s", "lower", true, true},
	{"kpn.build_s", "s", "lower", true, true},
	{"kpn.hash_s", "s", "lower", true, false},
	{"kpn.hash_bytes", "count", "lower", true, false},
	{"kpn.tokens", "count", "lower", true, false},
	{"kpn.self_s", "s", "lower", true, true},
	{"codec.self_s", "s", "lower", true, false},
	{"rtc.sizing_s", "s", "lower", true, true},
	{"rtc.mkbounds_s", "s", "lower", true, true},
	{"rtc.sizing_cache_hit_ratio", "ratio", "higher", true, false},
	{"rtc.self_s", "s", "lower", true, false},
	{"topo.generate_s", "s", "lower", true, false},
	{"topo.compile_s", "s", "lower", true, false},
	{"topo.self_s", "s", "lower", true, false},
	{"ft.build_s", "s", "lower", true, true},
	{"ft.selector_writes", "count", "lower", true, true},
	{"ft.selector_drops", "count", "lower", true, true},
	{"ft.value_drops", "count", "lower", true, false},
	{"ft.convictions", "count", "lower", true, true},
	{"ft.self_s", "s", "lower", true, false},
	{"recover.recoveries", "count", "lower", true, false},
	{"recover.incomplete", "count", "lower", true, false},
	{"obs.flight_events", "count", "lower", true, false},
	{"obs.explain_s", "s", "lower", true, false},
	{"obs.log_bytes_s", "s", "lower", true, false},
	{"obs.self_s", "s", "lower", true, false},
	{"go.alloc_bytes_per_scenario", "B", "lower", true, true},
	{"go.gc_cycles", "count", "lower", true, true},
	{"go.gc_pause_s", "s", "lower", true, true},
	{"runtime.self_s", "s", "lower", true, true},
	{"other.self_s", "s", "lower", true, false},
	{"trace.overhead_pct", "%", "lower", true, true},
}
