package main

// metricDef is one named metric: its unit, which direction is better,
// and (end-to-end metrics only) the share of the baseline median by
// which it may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root lists the same table; the smoke
// test fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the numbers a user of the recorder or the diagnoser sees
// that stay steady on a shared host: each is a ratio of times measured
// side by side, a count, a size, or (setup_s) the set-up time every
// benchmark reports. Every workload reports every one of them; see
// README.md for what the operation is on each workload.
var endToEnd = []metricDef{
	{"slowdown_x", "x", "lower", 0.10},
	{"steps_per_op", "steps", "lower", 0.03},
	{"log_bytes_per_kstep", "B", "lower", 0.03},
	{"mem_mb_p50", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// unbounded are printed, written with -out and compared by -compare,
// but gate nothing. The absolute times and rates moved up to 28% between
// two sets of runs of identical inputs on a shared 2-vCPU host, more
// than the widest regression bound a benchmark may set; the peak
// resident set jumps by 5 MiB in the runs where a collection falls
// behind a burst of allocation (README.md).
var unbounded = []metricDef{
	{"op_ms_p50", "ms", "lower", 0},
	{"op_ms_p90", "ms", "lower", 0},
	{"steps_per_s", "steps/s", "higher", 0},
	{"peak_rss_mb", "MiB", "lower", 0},
}

// perLayer come from the traced run's ledger. They carry no bound: they
// explain an end-to-end change, they do not gate one.
var perLayer = []metricDef{
	{"sched.ns_per_step", "ns", "lower", 0},
	{"sched.allocs_per_step", "count", "lower", 0},
	{"sched.handoffs_per_step", "count", "lower", 0},
	{"mem.ns_per_op", "ns", "lower", 0},
	{"ssync.ns_per_op", "ns", "lower", 0},
	{"vsys.ns_per_op", "ns", "lower", 0},
	{"sketch.ns_per_entry", "ns", "lower", 0},
	{"sketch.entries_per_step", "count", "lower", 0},
	{"sketch.modelled_overhead", "fraction", "lower", 0},
	{"trace.encode_ns_per_entry", "ns", "lower", 0},
	{"trace.decode_ns_per_entry", "ns", "lower", 0},
	{"trace.bytes_per_entry", "B", "lower", 0},
	{"epoch.ns_per_step", "ns", "lower", 0},
	{"epoch.checkpoint_bytes_frac", "fraction", "lower", 0},
	{"vsys.snapshot_ns", "ns", "lower", 0},
	{"vsys.digest_ns", "ns", "lower", 0},
	{"race.ns_per_event", "ns", "lower", 0},
	{"race.pairs_per_kstep", "count", "lower", 0},
	{"core.attempts_per_search", "count", "lower", 0},
	{"core.steps_per_attempt", "count", "lower", 0},
	{"core.diverged_frac", "fraction", "lower", 0},
	{"core.director_ns_per_step", "ns", "lower", 0},
	{"core.reproduce_ns_per_step", "ns", "lower", 0},
	{"core.order_replay_ms_p50", "ms", "lower", 0},
	{"core.order_replay_ms_p90", "ms", "lower", 0},
	{"search.frontier_ns_per_op", "ns", "lower", 0},
	{"search.snapshot_wall_ratio", "x", "lower", 0},
	{"search.snapshot_mb", "MiB", "lower", 0},
	{"search.snapshot_hit_frac", "fraction", "higher", 0},
	{"search.snapshot_evicted", "count", "lower", 0},
	{"search.fastforward_frac", "fraction", "higher", 0},
	{"exec.worker_speedup", "x", "higher", 0},
	{"exec.extra_steps_frac", "fraction", "lower", 0},
	{"obs.record_metrics_on_ratio", "x", "lower", 0},
	{"obs.replay_metrics_on_ratio", "x", "lower", 0},
	{"bench.trace_overhead_frac", "fraction", "lower", 0},
}

func findMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, unbounded, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
