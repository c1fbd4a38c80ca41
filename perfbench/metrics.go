package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics an untraced run reports, on every workload. The
// other user-visible figures — op_tail_s, hit_p50_ms (service-fleet) and
// fail_ratio — are printed on the human-readable lines above the result,
// because they are not defined on every workload or are 0 by design.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"probes_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer a workload bypasses reads 0 there (LAYERS.md lists which).
var perLayer = []metricDef{
	{"population.build_ms", "ms"},
	{"population.build_alloc_mb", "MB"},
	{"scan.universe_ms", "ms"},
	{"scan.next_ns", "ns"},
	{"core.open_ms", "ms"},
	{"core.place_ms", "ms"},
	{"core.shard_ms_p50", "ms"},
	{"core.shard_ms_max", "ms"},
	{"core.straggler_ratio", "ratio"},
	{"core.worker_busy_share", "ratio"},
	{"core.envelope_kb", "KB"},
	{"core.envelope_load_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.synthesize_s", "s"},
	{"netsim.events_per_op", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.noroute_share", "ratio"},
	{"netsim.virtual_s_per_op", "s"},
	{"netsim.fault_drops_per_op", "count"},
	{"netsim.queue_depth_p50", "count"},
	{"prober.sent_per_op", "count"},
	{"prober.answered_ratio", "ratio"},
	{"prober.rtt_p50_ms", "ms"},
	{"dnssrv.q2_per_op", "count"},
	{"dnssrv.r1_per_op", "count"},
	{"behavior.build_ns", "ns"},
	{"dnswire.append_ns", "ns"},
	{"dnswire.unpack_ns", "ns"},
	{"dnswire.resp_bytes", "bytes"},
	{"analysis.addr2_ns", "ns"},
	{"analysis.report_ms", "ms"},
	{"fabric.campaign_ms", "ms"},
	{"fabric.overhead_ratio", "ratio"},
	{"fabric.leases_per_cell", "count"},
	{"fabric.requeue_ratio", "ratio"},
	{"fabric.envelope_mb_per_job", "MB"},
	{"sweep.artifact_kb_per_job", "KB"},
	{"serve.submit_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.admission_denied", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"cpu.population", "share"},
	{"cpu.scan", "share"},
	{"cpu.netsim", "share"},
	{"cpu.prober", "share"},
	{"cpu.dnssrv", "share"},
	{"cpu.behavior", "share"},
	{"cpu.dnswire", "share"},
	{"cpu.analysis", "share"},
	{"cpu.core", "share"},
	{"cpu.fabric", "share"},
	{"cpu.sweep", "share"},
	{"cpu.serve", "share"},
	{"cpu.runtime", "share"},
	{"cpu.encoding_json", "share"},
	{"cpu.other", "share"},
	{"loadgen.late_p90_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.uncovered_ms_per_op", "ms"},
}
