package runtime

import (
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/obs"
	"multiprio/internal/platform"
)

func TestNewThreadedEngineNilArgs(t *testing.T) {
	if _, err := NewThreadedEngine(nil, &fifoSched{}); err == nil ||
		!strings.Contains(err.Error(), "nil machine") {
		t.Errorf("nil machine: err = %v, want descriptive error", err)
	}
	if _, err := NewThreadedEngine(platform.CPUOnly(2), nil); err == nil ||
		!strings.Contains(err.Error(), "nil scheduler") {
		t.Errorf("nil scheduler: err = %v, want descriptive error", err)
	}
}

// faultTestGraph builds a batch of independent sleeping kernels wide
// enough that kills land while work is still in flight.
func faultTestGraph(n int, d time.Duration) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		task := cpuTask("work", d.Seconds())
		task.Run = func(w WorkerInfo) { time.Sleep(d) }
		g.Submit(task)
	}
	return g
}

func TestThreadedEngineKillRecovery(t *testing.T) {
	g := faultTestGraph(24, 2*time.Millisecond)
	plan := &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.KillWorker, Worker: 0, At: 0.004},
			{Kind: fault.KillWorker, Worker: 1, At: 0.007},
		},
		Backoff: 1e-4,
	}
	eng, err := NewThreadedEngine(platform.CPUOnly(4), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Kills != 2 || len(res.Faults.AppliedKills) != 2 {
		t.Errorf("kills applied = %d (%v), want 2", res.Faults.Kills, res.Faults.AppliedKills)
	}
	// Exactly-once-effective: every task has exactly one successful
	// span, and no successful span outlives its worker's applied kill.
	killAt := map[platform.UnitID]float64{}
	for _, k := range res.Faults.AppliedKills {
		killAt[k.Unit] = k.At
	}
	okSpans := map[int64]int{}
	for _, s := range res.Trace.Spans {
		if s.Failed {
			continue
		}
		okSpans[s.TaskID]++
		if at, dead := killAt[s.Worker]; dead && s.End > at {
			t.Errorf("task %d committed on worker %d at %g, after its kill at %g",
				s.TaskID, s.Worker, s.End, at)
		}
	}
	for _, task := range g.Tasks {
		if okSpans[task.ID] != 1 {
			t.Errorf("task %d has %d successful spans, want 1", task.ID, okSpans[task.ID])
		}
	}
	failed := 0
	for _, w := range res.Workers {
		failed += w.FailedAttempts
		if _, dead := killAt[w.Unit]; dead != w.Dead {
			t.Errorf("worker %d Dead = %v, want %v", w.Unit, w.Dead, dead)
		}
	}
	if failed != res.Faults.Retries {
		t.Errorf("failed attempts = %d, retries = %d; want equal", failed, res.Faults.Retries)
	}
}

func TestThreadedEngineSlowdownStretches(t *testing.T) {
	d := 2 * time.Millisecond
	g := NewGraph()
	task := cpuTask("slow", d.Seconds())
	task.Run = func(w WorkerInfo) { time.Sleep(d) }
	slow := g.Submit(task)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.SlowWorker, Worker: 0, At: 0, Until: 10, Factor: 4},
		{Kind: fault.SlowWorker, Worker: 1, At: 0, Until: 10, Factor: 4},
	}}
	eng, err := NewThreadedEngine(platform.CPUOnly(2), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Slowdowns != 1 {
		t.Errorf("slowdowns = %d, want 1", res.Faults.Slowdowns)
	}
	if got := res.Tasks[slow.ID].EndAt - res.Tasks[slow.ID].StartAt; got < 3*d.Seconds() {
		t.Errorf("slowed kernel span = %gs, want >= %gs (factor 4 over %gs)",
			got, 3*d.Seconds(), d.Seconds())
	}
}

// TestThreadedEngineKillDuringCommute exercises the completion-discard
// path while commute locks are held: the discarded attempt must release
// its locks so the retry (and other commuters) can proceed.
func TestThreadedEngineKillDuringCommute(t *testing.T) {
	g := NewGraph()
	acc := g.NewData("acc", 8)
	var mu sync.Mutex
	commits := 0
	for i := 0; i < 8; i++ {
		task := cpuTask("update", 0.002, Access{acc, Commute})
		task.Run = func(w WorkerInfo) {
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			commits++
			mu.Unlock()
		}
		g.Submit(task)
	}
	plan := &fault.Plan{
		Events:  []fault.Event{{Kind: fault.KillWorker, Worker: 0, At: 0.003}},
		Backoff: 1e-4,
	}
	eng, err := NewThreadedEngine(platform.CPUOnly(3), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel side effects are not rolled back (the engines discard the
	// *completion*, not the computation), so commits may exceed the
	// task count by the number of discarded attempts.
	if commits < 8 {
		t.Errorf("commits = %d, want >= 8", commits)
	}
	if res.Faults.Kills != 1 {
		t.Errorf("kills = %d, want 1", res.Faults.Kills)
	}
}

// TestThreadedKernelPanicFailsTheRun: a panicking kernel fails the run
// with an error naming the task, not the process. Every task commutes on
// one handle, so Run returning at all proves the panicking attempt
// released its commute lock; the engine stays usable afterwards.
func TestThreadedKernelPanicFailsTheRun(t *testing.T) {
	build := func(panicAt int) *Graph {
		g := NewGraph()
		h := g.NewData("acc", 8)
		for i := 0; i < 16; i++ {
			task := cpuTask("update", 1e-4, Access{Handle: h, Mode: Commute})
			task.Run = func(WorkerInfo) { time.Sleep(100 * time.Microsecond) }
			if i == panicAt {
				task.Kind = "boom"
				task.Run = func(WorkerInfo) { panic("kernel exploded") }
			}
			g.Submit(task)
		}
		return g
	}
	before := goruntime.NumGoroutine()
	o := &endRecorder{}
	eng := newTestEngine(t, platform.CPUOnly(4), &fifoSched{}, WithObserver(o))
	res, err := eng.Run(build(5))
	if res != nil || err == nil {
		t.Fatalf("Run = (%v, %v), want a nil result and an error", res, err)
	}
	for _, want := range []string{"task 5", "(boom)", "worker ", "kernel exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if o.ends != 1 || o.res != nil || o.err != err {
		t.Errorf("observer saw %d RunEnd with (%v, %v), want one with (nil, %v)", o.ends, o.res, o.err, err)
	}
	// Workers leave on their own once they see the run failed.
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed run, %d before it", n, before)
	}
	if _, err := eng.Run(build(-1)); err != nil {
		t.Fatalf("second run on the same engine: %v", err)
	}
}

// endRecorder is a RunObserver recording the RunEnd calls.
type endRecorder struct {
	ends int
	res  *Result
	err  error
}

func (o *endRecorder) Decision(obs.Decision)                   {}
func (o *endRecorder) Counter(string, float64, int64, float64) {}
func (o *endRecorder) RunStart(RunInfo)                        {}
func (o *endRecorder) RunEnd(res *Result, err error)           { o.ends++; o.res, o.err = res, err }
