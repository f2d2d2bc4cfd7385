package main

import "fmt"

// workload is one (application, machine, policy, engine) job
// definition. A job is: call the generator, build a fresh policy,
// construct the engine through its validating constructor, Run, and
// receive the Result.
type workload struct {
	name string
	why  string
	// engine is "sim" or "threaded".
	engine  string
	machine string // see machineByName
	policy  string
	// app is "randdag" (layers × 50), "cholesky" (tiles, tileSize) or
	// "cholesky-kernels" (real Go kernels and a numeric verifier).
	app             string
	layers          int
	tiles, tileSize int
	// replay makes the check run record memory events, so the oracle
	// also replays coherence and capacity. Off where the event stream
	// would dominate the run's memory.
	replay bool
	// observer, when set, makes the traced run also time the job with
	// that observer attached, and report what it adds per task under
	// observerMetric. Simulator workloads only.
	observer       func() EngineOpt
	observerMetric string
}

const randdagWidth = 50

// workloads is the benchmark's fixed set. Sizes are chosen so that one
// run (set-up samples, warm-up, `run_seconds` of timed jobs, check run)
// fits the acceptance procedure's per-run time budget on two cores;
// README.md records how each was sized.
var workloads = []workload{
	{
		name: "sim-randdag-1e5-eager", engine: "sim", machine: "intel-v100", policy: "eager",
		app: "randdag", layers: 2000, replay: true,
		observer: optTelemetryProbe, observerMetric: "telemetry.probe_ns_per_task",
		why: "policy decides almost nothing: graph build and the sim event queue + memory manager (everything fits) do the work",
	},
	{
		name: "sim-randdag-1e5-multiprio", engine: "sim", machine: "intel-v100", policy: "multiprio",
		app: "randdag", layers: 2000, replay: true,
		observer: optDecisionLog, observerMetric: "obs.decisionlog_ns_per_task",
		why: "same graph and engine as the eager pair, but core Push/Pop + heap are about half the run: moves on policy work only",
	},
	{
		name: "sim-cholesky80-mem-eager", engine: "sim", machine: "smallsim", policy: "eager",
		app: "cholesky", tiles: 80, tileSize: 960, replay: true,
		why: "working set 6x the one 4 GiB GPU: eviction, writeback and re-fetch in the memory manager, policy about a tenth",
	},
	{
		name: "sim-cholesky80-mem-dmdas", engine: "sim", machine: "smallsim", policy: "dmdas",
		app: "cholesky", tiles: 80, tileSize: 960, replay: true,
		why: "dmdas Push (min-ECT over every worker via the DataLocator) is most of the run and drives the prefetch path",
	},
	{
		name: "sim-randdag-3e5-eager", engine: "sim", machine: "intel-v100", policy: "eager",
		app: "randdag", layers: 6000, replay: false,
		why: "the eager randdag job at 3x the tasks: heap far beyond the CPU caches, GC-bound build, where peak RSS means something",
	},
	{
		name: "thr-randdag-2e5-noop", engine: "threaded", machine: "cpus", policy: "eager",
		app: "randdag", layers: 4000,
		why: "nil kernels on the threaded engine: pure runtime overhead per task (lock wait, Pop, dependency release); sim untouched",
	},
	{
		name: "thr-cholesky24-kernels", engine: "threaded", machine: "cpus", policy: "multiprio",
		app: "cholesky-kernels", tiles: 24, tileSize: 64,
		why: "real Go kernels are ~98% of worker time: the bypass workload, scheduler and engine micro-optimisations must not move it",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shrunk returns the workload at about a hundredth of its task count,
// through the same code path; the harness tests run it.
func (w workload) shrunk() workload {
	if w.layers > 0 {
		w.layers /= 100
	}
	if w.tiles > 0 {
		// Cholesky has ~tiles³/6 tasks.
		w.tiles = max(4, w.tiles*10/46)
	}
	return w
}

// tasks is the task count the generator must produce.
func (w workload) tasks() int {
	if w.app == "randdag" {
		return w.layers * randdagWidth
	}
	t := w.tiles
	return t + t*(t-1) + t*(t-1)*(t-2)/6
}
