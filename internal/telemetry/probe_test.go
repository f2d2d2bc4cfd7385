package telemetry

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"multiprio/internal/obs"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

// familyValue digs a single metric value out of a snapshot.
func familyValue(t *testing.T, s Snapshot, family, label string) float64 {
	t.Helper()
	for _, f := range s.Families {
		if f.Name != family {
			continue
		}
		for _, m := range f.Metrics {
			if m.LabelValue == label {
				return m.Value
			}
		}
	}
	t.Fatalf("metric %s{%q} not found", family, label)
	return 0
}

// familyHist digs a histogram instance out of a snapshot.
func familyHist(t *testing.T, s Snapshot, family, label string) MetricSnapshot {
	t.Helper()
	for _, f := range s.Families {
		if f.Name != family {
			continue
		}
		for _, m := range f.Metrics {
			if m.LabelValue == label {
				return m
			}
		}
	}
	t.Fatalf("histogram %s{%q} not found", family, label)
	return MetricSnapshot{}
}

// TestProbeTaskDone: a TaskDone decision must feed the tenant queue and
// sojourn histograms (queue = A−B, sojourn = At−B), the completion
// counter, and the per-worker busy counter resolved via RunStart.
func TestProbeTaskDone(t *testing.T) {
	p := NewProbe()
	p.SetTenantFunc(func(id int64) string { return fmt.Sprintf("t%d", id%2) })
	p.Decision(obs.Decision{Kind: obs.TaskDone, At: 10, A: 4, B: 1, Task: 1, Worker: 3})
	p.Decision(obs.Decision{Kind: obs.TaskDone, At: 6, A: 2, B: 2, Task: 2, Worker: 0})

	s := p.Snapshot()
	q := familyHist(t, s, "multiprio_tenant_queue_seconds", "t1")
	if q.Count != 1 || q.Sum != 3 { // A−B = 4−1
		t.Errorf("t1 queue count/sum = %d/%g, want 1/3", q.Count, q.Sum)
	}
	soj := familyHist(t, s, "multiprio_tenant_sojourn_seconds", "t1")
	if soj.Sum != 9 { // At−B = 10−1
		t.Errorf("t1 sojourn sum = %g, want 9", soj.Sum)
	}
	if v := familyValue(t, s, "multiprio_tasks_completed_total", "t0"); v != 1 {
		t.Errorf("t0 completions = %g, want 1", v)
	}
	// No RunStart happened, so the worker falls back to the wN label.
	if v := familyValue(t, s, "multiprio_worker_busy_seconds_total", "w3"); v != 6 {
		t.Errorf("w3 busy = %g, want 6 (At−A)", v)
	}
	if v := familyValue(t, s, "multiprio_sched_decisions_total", "done"); v != 2 {
		t.Errorf("done decisions = %g, want 2", v)
	}
}

// TestProbeCounterTracks: track samples mirror into the track gauge and
// project onto the typed memory/stream gauges.
func TestProbeCounterTracks(t *testing.T) {
	p := NewProbe()
	p.Counter("mem.used[gpu0]", 1, 1, 4096)
	p.Counter("stream.inflight[t2]", 1, 2, 5)
	p.Counter("stream.pending[t2]", 1, 3, 7)
	p.Counter("sim.ready", 1, 4, 9)

	s := p.Snapshot()
	if v := familyValue(t, s, "multiprio_mem_used_bytes", "gpu0"); v != 4096 {
		t.Errorf("mem gauge = %g", v)
	}
	if v := familyValue(t, s, "multiprio_stream_inflight", "t2"); v != 5 {
		t.Errorf("inflight gauge = %g", v)
	}
	if v := familyValue(t, s, "multiprio_stream_pending", "t2"); v != 7 {
		t.Errorf("pending gauge = %g", v)
	}
	if v := familyValue(t, s, "multiprio_track_value", "sim.ready"); v != 9 {
		t.Errorf("track gauge = %g", v)
	}
}

// TestProbeHotPathAllocationFree pins the probe's two steady-state
// paths at zero allocations per event: a TaskDone decision (two
// histogram observations, a completion counter, a busy-seconds
// accumulation, a kind counter) through the label handles RunStart
// resolved, and a Counter sample on a track whose instance exists.
// The first event of each kind materializes its instances and is the
// warm-up.
func TestProbeHotPathAllocationFree(t *testing.T) {
	p := NewProbe()
	p.RunStart(runtime.RunInfo{Machine: platform.IntelV100(platform.Config{}), Tasks: 1, Scheduler: "pin", Engine: "sim"})
	d := obs.Decision{Kind: obs.TaskDone, At: 2, A: 1, B: 0.5, Worker: 1}
	p.Decision(d)
	if n := testing.AllocsPerRun(100, func() { d.Task++; p.Decision(d) }); n != 0 {
		t.Errorf("a TaskDone decision allocates %v times, want 0", n)
	}
	p.Counter("mem.used[gpu0]", 0, 0, 0)
	i := 0
	if n := testing.AllocsPerRun(100, func() { i++; p.Counter("mem.used[gpu0]", float64(i), int64(i), float64(i%4096)) }); n != 0 {
		t.Errorf("a Counter sample on a registered track allocates %v times, want 0", n)
	}
}

// TestProbeRunLifecycle: RunStart/RunEnd drive the in-flight gauge, the
// runs counter by result, the health state, and fold the result's
// fault/spec/stream summaries into counters.
func TestProbeRunLifecycle(t *testing.T) {
	p := NewProbe()
	h := p.Health()

	p.RunStart(runtime.RunInfo{Tasks: 3, Scheduler: "x", Engine: "sim"})
	if v := familyValue(t, p.Snapshot(), "multiprio_runs_inflight", ""); v != 1 {
		t.Errorf("inflight = %g, want 1", v)
	}
	res := &runtime.Result{
		Makespan: 2.0,
		Workers:  []runtime.WorkerStat{{Name: "cpu0", Busy: 1.5}},
		Faults:   runtime.FaultStats{Kills: 1, Retries: 2, TransferFailures: 3},
		Stream: &runtime.StreamStats{Tenants: []string{"a", "b"},
			Admitted: []int{4, 5}, Deferred: []int{1, 0}, MaxPending: []int{2, 0}},
	}
	res.Spec.Launched, res.Spec.ReplicaWins, res.Spec.Cancelled = 6, 2, 4
	p.RunEnd(res, nil)

	s := p.Snapshot()
	if v := familyValue(t, s, "multiprio_runs_inflight", ""); v != 0 {
		t.Errorf("inflight after end = %g", v)
	}
	if v := familyValue(t, s, "multiprio_runs_total", "ok"); v != 1 {
		t.Errorf("runs ok = %g", v)
	}
	if v := familyValue(t, s, "multiprio_worker_idle_seconds_total", "cpu0"); v != 0.5 {
		t.Errorf("idle = %g, want 0.5", v)
	}
	if v := familyValue(t, s, "multiprio_faults_retries_total", ""); v != 2 {
		t.Errorf("retries = %g", v)
	}
	if v := familyValue(t, s, "multiprio_spec_replicas_total", ""); v != 6 {
		t.Errorf("spec launched = %g", v)
	}
	if v := familyValue(t, s, "multiprio_stream_admitted_total", "b"); v != 5 {
		t.Errorf("stream admitted b = %g", v)
	}
	if v := familyValue(t, s, "multiprio_stream_deferred_total", "a"); v != 1 {
		t.Errorf("stream deferred a = %g", v)
	}
	if ok, _ := h.Healthy(); !ok {
		t.Error("healthy run degraded health")
	}

	// A watchdog abort flips health and counts under result=watchdog...
	p.RunStart(runtime.RunInfo{})
	p.RunEnd(nil, fmt.Errorf("wrap: %w", runtime.ErrWatchdog))
	if ok, reason := h.Healthy(); ok || !strings.Contains(reason, "watchdog") {
		t.Errorf("health after watchdog = %v %q", ok, reason)
	}
	if v := familyValue(t, p.Snapshot(), "multiprio_runs_total", "watchdog"); v != 1 {
		t.Error("watchdog run not counted")
	}
	// ...starvation too...
	p.RunStart(runtime.RunInfo{})
	p.RunEnd(nil, runtime.ErrStarved)
	if ok, _ := h.Healthy(); ok {
		t.Error("health ok after starvation abort")
	}
	// ...and the next clean run restores health.
	p.RunStart(runtime.RunInfo{})
	p.RunEnd(&runtime.Result{}, nil)
	if ok, _ := h.Healthy(); !ok {
		t.Error("clean run did not restore health")
	}
	// Unrelated errors count but do not degrade health.
	p.RunStart(runtime.RunInfo{})
	p.RunEnd(nil, errors.New("graph validation"))
	if ok, _ := h.Healthy(); !ok {
		t.Error("generic error degraded health")
	}
	if v := familyValue(t, p.Snapshot(), "multiprio_runs_total", "error"); v != 1 {
		t.Error("generic error not counted")
	}
}

// TestProbeWorkerResolution: after RunStart the busy counter uses the
// machine's unit names.
func TestProbeWorkerResolution(t *testing.T) {
	p := NewProbe()
	m := testMachine(t)
	p.RunStart(runtime.RunInfo{Machine: m})
	p.Decision(obs.Decision{Kind: obs.TaskDone, At: 2, A: 1, B: 0, Worker: 0})
	if v := familyValue(t, p.Snapshot(), "multiprio_worker_busy_seconds_total", m.Units[0].Name); v != 1 {
		t.Errorf("busy for %q = %g, want 1", m.Units[0].Name, v)
	}
}

// hoarder accepts every task and hands out none.
type hoarder struct{}

func (hoarder) Name() string                               { return "hoarder" }
func (hoarder) Init(*runtime.Env)                          {}
func (hoarder) Push(*runtime.Task)                         {}
func (hoarder) Pop(runtime.WorkerInfo) *runtime.Task       { return nil }
func (hoarder) TaskDone(*runtime.Task, runtime.WorkerInfo) {}

// TestStarvedRunDegradesHealthOnBothEngines: a policy that hands out
// nothing with tasks left is one failure, whichever engine meets it —
// the same sentinel, the same result label, an unhealthy /healthz.
func TestStarvedRunDegradesHealthOnBothEngines(t *testing.T) {
	m := testMachine(t)
	engines := map[string]func(...runtime.Option) (runtime.Engine, error){
		"sim": func(o ...runtime.Option) (runtime.Engine, error) { return sim.NewEngine(m, hoarder{}, o...) },
		"threaded": func(o ...runtime.Option) (runtime.Engine, error) {
			return runtime.NewThreadedEngine(m, hoarder{}, o...)
		},
	}
	for name, mk := range engines {
		p := NewProbe()
		eng, err := mk(runtime.WithObserver(p))
		if err != nil {
			t.Fatal(err)
		}
		g := runtime.NewGraph()
		g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{1e-3, 1e-3}})
		if _, err := eng.Run(g); !errors.Is(err, runtime.ErrStarved) {
			t.Errorf("%s: err = %v, want runtime.ErrStarved", name, err)
		}
		if v := familyValue(t, p.Snapshot(), "multiprio_runs_total", "starved"); v != 1 {
			t.Errorf("%s: multiprio_runs_total{result=starved} = %g, want 1", name, v)
		}
		if ok, reason := p.Health().Healthy(); ok || !strings.Contains(reason, "starved") {
			t.Errorf("%s: healthy = %v (%q), want unhealthy over a starved run", name, ok, reason)
		}
	}
}
