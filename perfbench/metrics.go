package main

// metricDef names a printed metric and its unit. BENCHMARK.json lists the
// same names; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are printed with --trace 0; all are medians over the run's
// repetitions.
var endToEnd = []metricDef{
	{"wall_s", "s"},       // process launch to exit of one repetition
	{"setup_s", "s"},      // process launch to the first row
	{"peak_rss_mb", "MB"}, // peak resident set of one repetition
}

// perLayer are printed with --trace 1. Times are medians over the traced
// repetitions; counts come from the obs registry and must repeat exactly.
var perLayer = []metricDef{
	{"scenario.load_s", "s"},
	{"core.compile_s", "s"},
	{"core.row_p50_s", "s"},
	{"core.row_p95_s", "s"},
	{"core.warm_s", "s"},
	{"netsim.fluidpaths_s", "s"},
	{"netsim.path_classes", "count"},
	{"flowsim.steps", "count"},
	{"flowsim.ns_per_step", "ns"},
	{"flowsim.cohorts", "count"},
	{"flowsim.cohort_splits", "count"},
	{"flowsim.peak_cohort_weight", "count"},
	{"sweep.put_s", "s"},
	{"sweep.get_s", "s"},
	{"sweep.hits", "count"},
	{"sweep.misses", "count"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.freelist_hit_ratio", "ratio"},
	{"sim.sched_resizes", "count"},
	{"netsim.pool_hit_ratio", "ratio"},
	{"netsim.queue_drops", "count"},
	{"netsim.queue_marks", "count"},
	{"tcp.timeouts", "count"},
	{"tcp.retransmit_packets", "count"},
	{"cc.cwnd_updates", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
	{"host.ref_s", "s"},
	{"rows_drifted", "count"},
}
