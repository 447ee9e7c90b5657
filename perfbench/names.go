package main

// metricUnit is one reported metric's name and unit. BENCHMARK.json at
// the repository root lists the same names; the smoke test keeps the
// two in step.
type metricUnit struct{ name, unit string }

// endToEndMetrics are printed by every untraced run (--trace 0).
var endToEndMetrics = []metricUnit{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"op_ms_tail", "ms"},
	{"work_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayerMetrics are printed by every traced run (--trace 1). A layer
// a workload bypasses reads 0 there.
var perLayerMetrics = []metricUnit{
	{"gpu.exec_ms_per_frame", "ms"},
	{"gpu.us_per_draw", "us"},
	{"gpu.endframe_ms", "ms"},
	{"gpu.draws_per_frame", "count"},
	{"gpu.cpu_util", "ratio"},
	{"gfxapi.self_ms_per_frame", "ms"},
	{"gfxapi.batches_per_frame", "count"},
	{"gfxapi.state_calls_per_frame", "count"},
	{"geom.self_ms", "ms"},
	{"rast.self_ms", "ms"},
	{"zst.self_ms", "ms"},
	{"frag.self_ms", "ms"},
	{"rop.self_ms", "ms"},
	{"geom.ns_per_vertex", "ns"},
	{"rast.ns_per_quad", "ns"},
	{"zst.ns_per_quad", "ns"},
	{"frag.ns_per_quad", "ns"},
	{"rop.ns_per_quad", "ns"},
	{"rast.quads_emitted", "count"},
	{"rast.fragments", "count"},
	{"zst.hz_killed_quads", "count"},
	{"shader.fs_instr", "count"},
	{"tex.bilinear_samples", "count"},
	{"cache.vertex.hit_ratio", "ratio"},
	{"cache.z.hit_ratio", "ratio"},
	{"cache.tex_l0.hit_ratio", "ratio"},
	{"cache.tex_l1.hit_ratio", "ratio"},
	{"cache.color.hit_ratio", "ratio"},
	{"mem.mb_per_frame", "MB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"serve.cold_ms", "ms"},
	{"serve.hit_ms", "ms"},
	{"serve.submit_ms_hit", "ms"},
	{"serve.submit_ms_cold", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.result_kb", "KB"},
	{"serve.cache_hit_ratio", "ratio"},
	{"spool.write_kb_per_hit", "KB"},
	{"spool.write_kb_per_cold", "KB"},
	{"spool.fsyncs_per_hit", "count"},
	{"spool.fsyncs_per_cold", "count"},
	{"spool.write_ms_per_job", "ms"},
	{"spool.files_at_open", "count"},
	{"spool.read_mb_at_open", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.accounted_share", "ratio"},
}

// complete fills the metrics a workload does not measure with 0, and
// fails the run on a metric the lists do not name or whose unit differs.
func (r *report) complete(trace bool) {
	list := endToEndMetrics
	if trace {
		list = perLayerMetrics
	}
	known := map[string]string{}
	for _, m := range list {
		known[m.name] = m.unit
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
	for name, m := range r.metrics {
		if unit, ok := known[name]; !ok || unit != m.Unit {
			r.fail("metric %s (%s) is not in the metric list", name, m.Unit)
		}
	}
}
