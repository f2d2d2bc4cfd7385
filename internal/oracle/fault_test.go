package oracle

import (
	"strings"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/fault"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
	"multiprio/internal/trace"
)

const killAt = 0.005

// runFaultSim executes a batch of independent kernels with worker 0
// killed mid-task, guaranteeing at least one failed attempt.
func runFaultSim(t *testing.T) (*runtime.Graph, *sim.Result, *fault.Plan) {
	t.Helper()
	return runFaultSimFirst(t, []float64{0.01, 0.001})
}

// runFaultSimFirst is runFaultSim with task 0's cost row chosen by the
// caller.
func runFaultSimFirst(t *testing.T, first []float64) (*runtime.Graph, *sim.Result, *fault.Plan) {
	t.Helper()
	g := runtime.NewGraph()
	g.Submit(runtime.TaskSpec{Kind: "work", Cost: first})
	for i := 1; i < 10; i++ {
		g.Submit(runtime.TaskSpec{Kind: "work", Cost: []float64{0.01, 0.001}})
	}
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KillWorker, Worker: 0, At: killAt},
	}}
	res, err := sim.Run(testMachine(t), g, core.New(core.Defaults()),
		runtime.WithMemEvents(),
		runtime.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Retries == 0 {
		t.Fatal("fault run produced no failed attempt; the scenario is mis-tuned")
	}
	return g, res, plan
}

func faultOpts(res *sim.Result, plan *fault.Plan, strict bool) Options {
	return Options{
		OverflowBytes: res.OverflowBytes,
		Faults: &FaultCheck{
			MaxRetries: plan.RetryCap(),
			Kills:      res.Faults.AppliedKills,
			Strict:     strict,
		},
	}
}

func TestFaultCheckAcceptsFaultRun(t *testing.T) {
	g, res, plan := runFaultSim(t)
	if err := Check(g, res.Trace, faultOpts(res, plan, true)); err != nil {
		t.Fatalf("valid fault run rejected: %v", err)
	}
}

// Without a FaultCheck the oracle keeps the strict exactly-once rule:
// any failed span in the trace is itself a violation.
func TestFailedSpanRejectedWithoutFaultCheck(t *testing.T) {
	g, res, _ := runFaultSim(t)
	err := Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes})
	if err == nil || !strings.Contains(err.Error(), "fault checking is not enabled") {
		t.Fatalf("err = %v, want failed-attempt violation", err)
	}
}

func TestFaultCheckRetryBudget(t *testing.T) {
	g, res, plan := runFaultSim(t)
	// Forge extra attempts of the already-failed task: degenerate spans
	// at the kill instant, so only the budget check can fire.
	var failed trace.Span
	for _, s := range res.Trace.Spans {
		if s.Failed {
			failed = s
			break
		}
	}
	for i := 0; i < 3; i++ {
		dup := failed
		dup.Start, dup.End, dup.Wait = killAt, killAt, 0
		res.Trace.Spans = append(res.Trace.Spans, dup)
	}
	opts := faultOpts(res, plan, true)
	opts.Faults.MaxRetries = 2
	err := Check(g, res.Trace, opts)
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v, want retry-budget violation", err)
	}
}

func TestFaultCheckKillViolation(t *testing.T) {
	g, res, plan := runFaultSim(t)
	// Move one successful span onto the killed worker, ending after the
	// kill: a forged completion.
	for i := range res.Trace.Spans {
		s := &res.Trace.Spans[i]
		if s.Failed || s.Worker == 0 {
			continue
		}
		if s.End > killAt {
			s.Worker = 0
			break
		}
	}
	err := Check(g, res.Trace, faultOpts(res, plan, false))
	if err == nil || !strings.Contains(err.Error(), "after its kill") {
		t.Fatalf("err = %v, want kill violation", err)
	}
}

// TestFaultCheckStrictMode: a failed attempt ending past the kill is
// legal under the threaded engine's completion-discard semantics
// (Strict off) but a violation under the simulator's abort semantics.
func TestFaultCheckStrictMode(t *testing.T) {
	g, res, plan := runFaultSim(t)
	for i := range res.Trace.Spans {
		s := &res.Trace.Spans[i]
		if s.Failed {
			s.End = killAt + 0.001
			break
		}
	}
	if err := Check(g, res.Trace, faultOpts(res, plan, false)); err != nil {
		t.Fatalf("completion-discard semantics rejected with Strict off: %v", err)
	}
	err := Check(g, res.Trace, faultOpts(res, plan, true))
	if err == nil || !strings.Contains(err.Error(), "after its kill") {
		t.Fatalf("err = %v, want strict kill violation", err)
	}
}

// TestFaultCheckRetryDependency: every attempt, failed or not, must
// respect dependencies — a retry forged to start before a predecessor's
// completion is a violation.
func TestFaultCheckRetryDependency(t *testing.T) {
	// Task 0 is GPU-only here, so the attempt killed on CPU worker 0 is
	// of a later task and an edge into it respects submission order.
	g, res, plan := runFaultSimFirst(t, []float64{0, 0.001})
	// Give the failed task a fake predecessor finishing after the
	// attempt started: pick an earlier task whose span overlaps it.
	var failed *trace.Span
	for i := range res.Trace.Spans {
		if res.Trace.Spans[i].Failed {
			failed = &res.Trace.Spans[i]
			break
		}
	}
	var pred *runtime.Task
	var dependent *runtime.Task
	for _, task := range g.Tasks {
		if task.ID == failed.TaskID {
			dependent = task
		} else if res.Tasks[task.ID].EndAt > failed.Start && task.ID < failed.TaskID {
			pred = task
		}
	}
	if pred == nil || dependent == nil {
		t.Fatal("no overlapping predecessor candidate in this schedule")
	}
	g.Declare(pred, dependent)
	err := Check(g, res.Trace, faultOpts(res, plan, true))
	if err == nil || !strings.Contains(err.Error(), "dependency violated") {
		t.Fatalf("err = %v, want dependency violation on the failed attempt", err)
	}
}
