package main

// metricDef names one reported metric. The lists mirror BENCHMARK.json
// (a test keeps the two in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better,omitempty"`
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on
// every workload. On the closed loops a request is due when it is sent
// and ontime means a round trip within the 5 ms deadline.
var endToEnd = []metricDef{
	{"rtt_p50_us", "us", "lower"},
	{"msgs_per_s", "1/s", "higher"},
	{"cpu_us_per_msg", "us", "lower"},
	{"bytes_per_s", "B/s", "higher"},
	{"goodput_per_s", "1/s", "higher"},
	{"ontime_frac", "ratio", "higher"},
	{"due_p50_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// tails are measured and printed with the end-to-end metrics but left
// out of the result line: on a host whose CPUs are shared with other
// machines, the 99th percentile of an open loop moves with the host's
// stalls by more than any bound the benchmark may set (see CHANGES.md).
// The report line gives each with its sample count.
var tails = []metricDef{
	{"rtt_p99_us", "us", "lower"},
	{"due_p99_us", "us", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1), named
// layer.metric after the repository's packages. A metric a workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	{"core.req_leg_us.p50", "us", "lower"},
	{"core.req_leg_us.p99", "us", "lower"},
	{"core.reply_leg_us.p50", "us", "lower"},
	{"core.reply_leg_us.p99", "us", "lower"},
	{"core.spin_iters_per_msg", "count", "lower"},
	{"core.spin_fallthru_frac", "ratio", "lower"},
	{"core.tuner_budget", "count", "lower"},
	{"core.shed_frac", "ratio", "lower"},
	{"core.overload_frac", "ratio", "lower"},
	{"core.retries_per_msg", "count", "lower"},
	{"livebind.sem_p_per_msg", "count", "lower"},
	{"livebind.blocks_per_msg", "count", "lower"},
	{"livebind.wakeups_per_msg", "count", "lower"},
	{"livebind.yields_per_msg", "count", "lower"},
	{"livebind.sleeps_per_msg", "count", "lower"},
	{"livebind.sem_pv_ns", "ns", "lower"},
	{"livebind.warray_pv_ns", "ns", "lower"},
	{"livebind.cond_wake_us.p50", "us", "lower"},
	{"livebind.cond_wake_us.p99", "us", "lower"},
	{"livebind.futex_wake_us.p50", "us", "lower"},
	{"livebind.futex_wake_us.p99", "us", "lower"},
	{"livebind.gosched_ns", "ns", "lower"},
	{"queue.twolock_pair_ns", "ns", "lower"},
	{"queue.spsc_pair_ns", "ns", "lower"},
	{"queue.twolock_pair_2p_ns", "ns", "lower"},
	{"queue.lanes_pair_ns", "ns", "lower"},
	{"queue.ring_pair_ns", "ns", "lower"},
	{"queue.lockfree_pair_ns", "ns", "lower"},
	{"shm.lane_pair_ns", "ns", "lower"},
	{"shm.block_alloc_free_ns", "ns", "lower"},
	{"shm.memcpy_ns_per_kib", "ns", "lower"},
	{"shm.block_refills_per_msg", "count", "lower"},
	{"obs.record_ns", "ns", "lower"},
	{"loadgen.lag_us.p50", "us", "lower"},
	{"loadgen.lag_us.p99", "us", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
}
