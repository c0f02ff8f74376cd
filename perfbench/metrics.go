package main

// metricDef declares one reported metric: its name, unit and which
// direction is an improvement. BENCHMARK.json at the repository root
// declares the same tables; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd is what a user of the emulator sees, reported by every
// workload with tracing off. Each is defined on all three workloads so
// that no value is ever zero; the README gives the per-workload meaning.
var endToEnd = []metricDef{
	{"real_gflops", "Gflops", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"model_gflops", "Gflops", "higher"},
	{"step_p50_ms", "ms", "lower"},
	{"step_p90_ms", "ms", "lower"},
}

// perLayer is reported by every workload with tracing on. A layer the
// workload bypasses reports 0: that is the evidence it was bypassed.
var perLayer = []metricDef{
	{"host.ref_ns", "ns", "lower"},
	{"trace.overhead_frac", "1", "lower"},

	{"hermite.ns_per_step", "ns", "lower"},
	{"hermite.ns_per_interaction", "ns", "lower"},
	{"hermite.self_frac", "1", "lower"},
	{"hermite.overhead_ratio", "1", "lower"},
	{"hermite.block_size_mean", "count", "higher"},
	{"hermite.energy_drift", "1", "lower"},

	{"gbackend.ns_per_interaction", "ns", "lower"},
	{"gbackend.self_ns_per_step", "ns", "lower"},
	{"gbackend.overhead_ratio", "1", "lower"},
	{"gbackend.retry_ratio", "1", "lower"},

	{"board.ns_per_interaction", "ns", "lower"},
	{"board.predict_ns_per_step", "ns", "lower"},
	{"board.update_ns_per_step", "ns", "lower"},
	{"board.hw_cycles_per_step", "count", "lower"},
	{"board.pool_ratio", "1", "lower"},

	{"chip.ns_per_interaction", "ns", "lower"},

	{"perfmodel.host_frac", "1", "lower"},
	{"perfmodel.grape_frac", "1", "higher"},
	{"perfmodel.comm_frac", "1", "lower"},

	{"grape6d.busy_frac", "1", "higher"},
	{"grape6d.swaps_per_step", "1", "lower"},
	{"grape6d.fill_mean", "1", "higher"},
	{"grape6d.batches_per_request", "1", "lower"},
	{"grape6d.offarray_ns_per_step", "ns", "lower"},
	{"grape6d.attach_ms", "ms", "lower"},
	{"grape6d.throttled", "count", "lower"},

	{"direct.ns_per_interaction", "ns", "lower"},
	{"parallel.self_frac", "1", "lower"},
	{"parallel.energy_drift", "1", "lower"},
	{"simnet.msgs_per_s", "1/s", "higher"},
	{"simnet.messages", "count", "lower"},
	{"simnet.bytes", "B", "lower"},

	{"vtrace.overhead_frac", "1", "lower"},
	{"vtrace.host_frac", "1", "lower"},
	{"vtrace.grape_frac", "1", "higher"},
	{"vtrace.comm_frac", "1", "lower"},
	{"vtrace.sync_frac", "1", "lower"},
}

// defsFor returns the metric table a run with the given trace setting
// reports.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}
