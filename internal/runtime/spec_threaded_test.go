package runtime

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/platform"
	"multiprio/internal/spec"
)

// TestThreadedSpeculationReplicaWins wedges worker 0 behind a 12x
// slowdown window the model knows nothing about: kernels landing there
// straggle, their deadlines must replicate them, and the replicas must win.
// cancelledAttempts sums the speculation losers that ran on any worker.
func cancelledAttempts(res *Result) (n int) {
	for _, w := range res.Workers {
		n += w.CancelledAttempts
	}
	return n
}

func TestThreadedSpeculationReplicaWins(t *testing.T) {
	d := 2 * time.Millisecond
	g := faultTestGraph(24, d)
	plan := &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.SlowWorker, Worker: 0, At: 0, Until: 10, Factor: 12},
		},
		Speculation: spec.Policy{Enabled: true},
	}
	eng, err := NewThreadedEngine(platform.CPUOnly(4), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Flagged == 0 || res.Spec.Launched == 0 {
		t.Fatalf("no straggler flagged under a 12x slowdown: %+v", res.Spec)
	}
	if res.Spec.ReplicaWins == 0 {
		t.Fatalf("no replica win under a 12x slowdown: %+v", res.Spec)
	}
	if got := cancelledAttempts(res); got == 0 || got > res.Spec.Cancelled {
		t.Errorf("trace has %d cancelled spans, stats count %d cancelled attempts",
			got, res.Spec.Cancelled)
	}
	// Exactly-once-effective: every task has exactly one successful
	// span, matching its committed execution record, and every
	// cancelled attempt ends at or after the effective completion
	// (first-success-wins; the loser's completion was discarded later).
	effective := map[int64]*TaskState{}
	for _, task := range g.Tasks {
		effective[task.ID] = &res.Tasks[task.ID]
	}
	okSpans := map[int64]int{}
	for _, s := range res.Trace.Spans {
		if s.Cancelled {
			task := effective[s.TaskID]
			if s.End < task.EndAt-1e-9 {
				t.Errorf("cancelled attempt of task %d ends at %g, before its effective end %g",
					s.TaskID, s.End, task.EndAt)
			}
			continue
		}
		if s.Failed {
			t.Errorf("failed span of task %d in a kill-free run", s.TaskID)
			continue
		}
		okSpans[s.TaskID]++
		task := effective[s.TaskID]
		if task.RanOn != s.Worker || task.StartAt != s.Start || task.EndAt != s.End {
			t.Errorf("task %d record (w%d [%g,%g]) disagrees with effective span (w%d [%g,%g])",
				s.TaskID, task.RanOn, task.StartAt, task.EndAt, s.Worker, s.Start, s.End)
		}
	}
	for _, task := range g.Tasks {
		if okSpans[task.ID] != 1 {
			t.Errorf("task %d has %d effective spans, want exactly 1", task.ID, okSpans[task.ID])
		}
	}
}

// TestThreadedSpeculationIdleWithoutStragglers: speculation on, nothing
// slow — no deadline may flag anything and the run must look exactly
// like a plain one. Deadlines are wall timers while four workers
// share the test machine's cores, so "nothing slow" needs headroom:
// 5 ms kernels against a 200x slack put the straggler threshold at 1 s,
// beyond any descheduling of a sleeping goroutine, even under the race
// detector on two loaded cores (1 ms kernels at the default 2x flagged
// healthy attempts about one run in five, and a 60 ms threshold was
// still crossed now and then). The kernels stay 5 ms long, so every
// attempt arms a deadline that must not fire.
func TestThreadedSpeculationIdleWithoutStragglers(t *testing.T) {
	g := faultTestGraph(16, 5*time.Millisecond)
	plan := &fault.Plan{Speculation: spec.Policy{Enabled: true, SlackFactor: 200}}
	eng, err := NewThreadedEngine(platform.CPUOnly(4), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Flagged != 0 || res.Spec.Launched != 0 || res.Spec.Cancelled != 0 {
		t.Fatalf("speculation activity without stragglers: %+v", res.Spec)
	}
	if n := cancelledAttempts(res); n != 0 {
		t.Fatalf("%d cancelled spans without stragglers", n)
	}
}

// TestThreadedSpeculationComposesWithKills: a kill landing on a
// straggling attempt must still resolve to exactly-once-effective.
func TestThreadedSpeculationComposesWithKills(t *testing.T) {
	d := 2 * time.Millisecond
	g := faultTestGraph(24, d)
	plan := &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.SlowWorker, Worker: 0, At: 0, Until: 10, Factor: 12},
			{Kind: fault.KillWorker, Worker: 1, At: 0.004},
		},
		Backoff:     1e-4,
		Speculation: spec.Policy{Enabled: true},
	}
	eng, err := NewThreadedEngine(platform.CPUOnly(4), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Kills != 1 {
		t.Errorf("kills = %d, want 1", res.Faults.Kills)
	}
	okSpans := map[int64]int{}
	for _, s := range res.Trace.Spans {
		if !s.Failed && !s.Cancelled {
			okSpans[s.TaskID]++
		}
	}
	for _, task := range g.Tasks {
		if okSpans[task.ID] != 1 {
			t.Errorf("task %d has %d effective spans, want exactly 1", task.ID, okSpans[task.ID])
		}
	}
}

// TestThreadedWatchdogDump wedges one kernel on a channel no one closes
// until the test ends: the watchdog must abort the run with ErrWatchdog
// and dump the wedged worker's state.
func TestThreadedWatchdogDump(t *testing.T) {
	unwedge := make(chan struct{})
	defer close(unwedge) // let the leaked kernel goroutine exit
	g := NewGraph()
	wedged := cpuTask("wedged", 0.001)
	wedged.Run = func(w WorkerInfo) { <-unwedge }
	g.Submit(wedged)
	for i := 0; i < 4; i++ {
		task := cpuTask("work", 0.001)
		task.Run = func(w WorkerInfo) { time.Sleep(time.Millisecond) }
		g.Submit(task)
	}
	var buf bytes.Buffer
	eng, err := NewThreadedEngine(platform.CPUOnly(2), &fifoSched{},
		WithWatchdog(30*time.Millisecond), WithWatchdogOutput(&buf))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(g)
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	dump := buf.String()
	for _, want := range []string{"threaded watchdog", "tasks-left=", "running task", "decision tail"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestThreadedWatchdogAbandonsFailedRun: a run that failed for another
// reason — here a panicking kernel — while a kernel is wedged cannot join
// its workers; the armed watchdog must abandon them at its deadline, so
// Run returns the run's own error instead of hanging.
func TestThreadedWatchdogAbandonsFailedRun(t *testing.T) {
	unwedge := make(chan struct{})
	defer close(unwedge) // let the leaked kernel goroutine exit
	g := NewGraph()
	wedged := cpuTask("wedged", 0.001)
	wedged.Run = func(WorkerInfo) { <-unwedge }
	g.Submit(wedged)
	boom := cpuTask("boom", 0.001)
	boom.Run = func(WorkerInfo) { panic("kernel bug") }
	g.Submit(boom)
	var buf bytes.Buffer
	eng, err := NewThreadedEngine(platform.CPUOnly(2), &fifoSched{},
		WithWatchdog(30*time.Millisecond), WithWatchdogOutput(&buf))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(g)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("err = %v, want the kernel's panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return 5 s after its 30 ms watchdog deadline")
	}
	if buf.Len() != 0 {
		t.Errorf("the watchdog dumped a run that had already failed:\n%s", buf.String())
	}
}

// TestThreadedWatchdogQuietOnHealthyRuns: a generous deadline neither
// fires nor disturbs the run.
func TestThreadedWatchdogQuietOnHealthyRuns(t *testing.T) {
	g := faultTestGraph(8, time.Millisecond)
	var buf bytes.Buffer
	eng, err := NewThreadedEngine(platform.CPUOnly(2), &fifoSched{},
		WithWatchdog(time.Minute), WithWatchdogOutput(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(g); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("watchdog wrote a dump on a healthy run:\n%s", buf.String())
	}
}

// TestThreadedRetryDelaySchedule: the threaded engine delays retries by
// the plan's capped exponential schedule — with jitter disabled and a
// visible base, the sole retry of a killed task must not come back
// before the first-attempt delay.
func TestThreadedRetryDelaySchedule(t *testing.T) {
	d := 4 * time.Millisecond
	g := faultTestGraph(2, d)
	plan := &fault.Plan{
		Events:  []fault.Event{{Kind: fault.KillWorker, Worker: 0, At: 0.002}},
		Backoff: 0.02, Jitter: -1,
	}
	eng, err := NewThreadedEngine(platform.CPUOnly(2), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Retries == 0 {
		t.Skip("kill landed after both kernels; nothing retried")
	}
	// The retried task's effective span starts only after kill + delay.
	var failedAt float64
	for _, s := range res.Trace.Spans {
		if s.Failed && s.End > failedAt {
			failedAt = s.End
		}
	}
	for _, s := range res.Trace.Spans {
		if s.Failed {
			continue
		}
		var wasKilled bool
		for _, f := range res.Trace.Spans {
			if f.Failed && f.TaskID == s.TaskID {
				wasKilled = true
			}
		}
		if wasKilled && s.Start < failedAt+plan.RetryDelay(s.TaskID, 1)-2e-3 {
			t.Errorf("retry of task %d started at %g, before discard %g + delay %g",
				s.TaskID, s.Start, failedAt, plan.RetryDelay(s.TaskID, 1))
		}
	}
}
