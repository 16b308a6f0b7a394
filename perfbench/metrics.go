package main

// metricDef declares one reported metric. The two lists below are the
// benchmark's schema; BENCHMARK.json at the repository root declares the
// same names and units (a test keeps them in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, printed with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solve_s", "s", "lower"},
	{"p", "count", "higher"},
	{"heterogeneity", "households", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"ok_share", "share", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"job_first_incumbent_p50_ms", "ms", "lower"},
	{"job_done_p50_ms", "ms", "lower"},
	{"restart_ready_s", "s", "lower"},
}

// perLayer are the single-layer metrics of the traced run, printed with
// --trace 1. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"census.generate_s", "s", "lower"},
	{"prep.build_s", "s", "lower"},
	{"shard.cut_plan_s", "s", "lower"},
	{"fact.feasibility_ms", "ms", "lower"},
	{"fact.construction_s", "s", "lower"},
	{"fact.construction_alloc_mb", "MiB", "lower"},
	{"tabu.search_s", "s", "lower"},
	{"tabu.moves", "count", "lower"},
	{"tabu.ns_per_move", "ns", "lower"},
	{"tabu.candidate_evals", "count", "lower"},
	{"tabu.removability_passes", "count", "lower"},
	{"tabu.alloc_mb", "MiB", "lower"},
	{"fact.shard_busy_s", "s", "lower"},
	{"fact.shard_parallel_eff", "share", "higher"},
	{"fact.seam_repair_s", "s", "lower"},
	{"fact.seam_moves", "count", "lower"},
	{"runtime.gc_cpu_share", "share", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"host.steal_share", "share", "lower"},
	{"server.hit_p50_ms", "ms", "lower"},
	{"server.cold_p50_ms", "ms", "lower"},
	{"server.cold_p95_ms", "ms", "lower"},
	{"solvecache.result_hit_ratio", "share", "higher"},
	{"solvecache.dataset_hit_ratio", "share", "higher"},
	{"solvecache.queue_wait_p95_ms", "ms", "lower"},
	{"solvecache.rejected", "count", "lower"},
	{"jobs.submit_p50_ms", "ms", "lower"},
	{"jobs.warmstart_ratio", "share", "higher"},
	{"jobs.events_per_job", "count", "lower"},
	{"durable.checkpoints_written", "count", "lower"},
	{"durable.snapshot_mb", "MiB", "lower"},
	{"durable.restored_entries", "count", "higher"},
	{"loadgen.attempted", "count", "higher"},
	{"loadgen.lag_p95_ms", "ms", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}
