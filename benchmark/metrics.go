package main

// metricDef declares one metric: BENCHMARK.json lists the same names,
// units, directions and bounds, and a harness test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics of a plain run (--trace 0): what someone
// running sweeps on the simulator, or tasks on the threaded engine,
// pays. Simulated schedule quality is reported per layer (sim.*) —
// see README.md for why it cannot be bounded here. A job is timed from
// a collected heap, and the three timings are host-corrected seconds
// (refload.go): the host's own speed moves by 20-50 % over an hour,
// which no bound the contract allows survives.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"e2e_wall_s", "s", "lower", 0.25},
	{"tasks_per_s", "1/s", "higher", 0.25},
	{"allocs_per_task", "count", "lower", 0.02},
	{"alloc_bytes_per_task", "B", "lower", 0.20},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// perLayer are the metrics of a traced run (--trace 1). A metric that
// does not apply to a workload — the other engine's, an observer the
// workload does not name, the stand-alone layers anywhere but on
// standaloneHost — reads 0 there.
var perLayer = []metricDef{
	// apps and runtime.Graph
	{name: "apps.build_s", unit: "s", better: "lower"},
	{name: "apps.build_allocs_per_task", unit: "count", better: "lower"},
	{name: "apps.build_bytes_per_task", unit: "B", better: "lower"},
	{name: "graph.submit_ns_per_task", unit: "ns", better: "lower"},
	{name: "graph.submit_allocs_per_task", unit: "count", better: "lower"},
	{name: "graph.edges", unit: "count", better: "lower"},
	// sched inside a run, through the timing decorator
	{name: "sched.init_s", unit: "s", better: "lower"},
	{name: "sched.push_s", unit: "s", better: "lower"},
	{name: "sched.pop_s", unit: "s", better: "lower"},
	{name: "sched.taskdone_s", unit: "s", better: "lower"},
	{name: "sched.push_calls", unit: "count", better: "lower"},
	{name: "sched.pop_calls", unit: "count", better: "lower"},
	{name: "sched.pop_nil_calls", unit: "count", better: "lower"},
	{name: "sched.pop_useful_ratio", unit: "ratio", better: "higher"},
	// sched stand-alone, heap, perf model
	{name: "sched.multiprio.push_ns", unit: "ns", better: "lower"},
	{name: "sched.multiprio.pop_ns", unit: "ns", better: "lower"},
	{name: "sched.dmdas.push_ns", unit: "ns", better: "lower"},
	{name: "sched.dmdas.pop_ns", unit: "ns", better: "lower"},
	{name: "sched.heteroprio.push_ns", unit: "ns", better: "lower"},
	{name: "sched.heteroprio.pop_ns", unit: "ns", better: "lower"},
	{name: "sched.lws.push_ns", unit: "ns", better: "lower"},
	{name: "sched.lws.pop_ns", unit: "ns", better: "lower"},
	{name: "sched.eager.push_ns", unit: "ns", better: "lower"},
	{name: "sched.eager.pop_ns", unit: "ns", better: "lower"},
	{name: "heap.ops_ns", unit: "ns", better: "lower"},
	{name: "heap.topn_ns", unit: "ns", better: "lower"},
	{name: "perfmodel.delta_ns", unit: "ns", better: "lower"},
	// sim
	{name: "sim.run_s", unit: "s", better: "lower"},
	{name: "sim.self_s", unit: "s", better: "lower"},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.self_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.run_allocs_per_task", unit: "count", better: "lower"},
	{name: "sim.run_bytes_per_task", unit: "B", better: "lower"},
	{name: "sim.mem.events", unit: "count", better: "lower"},
	{name: "sim.mem.allocs", unit: "count", better: "lower"},
	{name: "sim.mem.frees", unit: "count", better: "lower"},
	{name: "sim.mem.transfers", unit: "count", better: "lower"},
	{name: "sim.mem.fetch_gb", unit: "GB", better: "lower"},
	{name: "sim.mem.prefetch_gb", unit: "GB", better: "lower"},
	{name: "sim.mem.writeback_gb", unit: "GB", better: "lower"},
	{name: "sim.mem.overflow_bytes", unit: "B", better: "lower"},
	{name: "sim.memevents_overhead_frac", unit: "ratio", better: "lower"},
	// simulated schedule quality: exact, must not move on a host-speed PR
	{name: "sim.makespan_s", unit: "sim_s", better: "lower"},
	{name: "sim.idle_frac", unit: "ratio", better: "lower"},
	{name: "sim.transfer_gb", unit: "GB", better: "lower"},
	// runtime.threaded
	{name: "threaded.run_s", unit: "s", better: "lower"},
	{name: "threaded.kernel_s", unit: "s", better: "lower"},
	{name: "threaded.sched_s", unit: "s", better: "lower"},
	{name: "threaded.nonkernel_us_per_task", unit: "us", better: "lower"},
	{name: "threaded.busy_frac", unit: "ratio", better: "higher"},
	{name: "threaded.run_allocs_per_task", unit: "count", better: "lower"},
	// trace, oracle, observers, heft
	{name: "trace.canonical_s", unit: "s", better: "lower"},
	{name: "trace.canonical_bytes", unit: "B", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "oracle.check_s", unit: "s", better: "lower"},
	{name: "oracle.check_ns_per_task", unit: "ns", better: "lower"},
	{name: "telemetry.probe_ns_per_task", unit: "ns", better: "lower"},
	{name: "obs.decisionlog_ns_per_task", unit: "ns", better: "lower"},
	{name: "heft.plan_ns_per_task", unit: "ns", better: "lower"},
	// Go runtime, per plain job
	{name: "mem.gc_cycles", unit: "count", better: "lower"},
	{name: "mem.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "mem.gc_cpu_frac", unit: "ratio", better: "lower"},
	// the forced collection after a plain job, which no timed job pays
	{name: "mem.gc_after_job_ms", unit: "ms", better: "lower"},
	// uncorrected: the plain jobs of the traced process, its peak
	// resident set, and the reference load beside them
	{name: "job.wall_raw_s", unit: "s", better: "lower"},
	{name: "mem.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "host.ref_load_s", unit: "s", better: "lower"},
	// the traced run against the plain jobs of the same process
	{name: "trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "layers.residual_frac", unit: "ratio", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport returns a report carrying every metric of defs at 0.
func newReport(defs []metricDef) *report {
	r := &report{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

// set stores a value under a declared name; an undeclared name is a bug
// in the benchmark.
func (r *report) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}
