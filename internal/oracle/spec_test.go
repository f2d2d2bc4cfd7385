package oracle

import (
	"slices"
	"strings"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/fault"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
	"multiprio/internal/spec"
)

// runSpecSim executes a batch of independent kernels with worker 0
// slowed far past the speculation slack (the model does not know about
// the slowdown), guaranteeing at least one replica win and hence at
// least one cancelled span.
func runSpecSim(t *testing.T) (*runtime.Graph, *sim.Result, *fault.Plan) {
	t.Helper()
	g := runtime.NewGraph()
	for i := 0; i < 10; i++ {
		g.Submit(runtime.TaskSpec{Kind: "work", Cost: []float64{0.01, 0.001}})
	}
	plan := &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.SlowWorker, Worker: 0, At: 0, Until: 1e3, Factor: 16},
		},
		Speculation: spec.Policy{Enabled: true, SlackFactor: 1.5},
	}
	res, err := sim.Run(testMachine(t), g, core.New(core.Defaults()),
		runtime.WithMemEvents(),
		runtime.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	ranLoser := slices.ContainsFunc(res.Workers, func(w runtime.WorkerStat) bool { return w.CancelledAttempts > 0 })
	if res.Spec.ReplicaWins == 0 || !ranLoser {
		t.Fatalf("speculation run produced no replica win (stats %+v); the scenario is mis-tuned", res.Spec)
	}
	return g, res, plan
}

func specOpts(res *sim.Result, plan *fault.Plan) Options {
	return Options{
		OverflowBytes: res.OverflowBytes,
		Spec:          &SpecCheck{MaxReplicas: plan.SpecPolicy().ReplicaCap()},
	}
}

func TestSpecCheckAcceptsSpeculativeRun(t *testing.T) {
	g, res, plan := runSpecSim(t)
	if err := Check(g, res.Trace, specOpts(res, plan)); err != nil {
		t.Fatalf("valid speculative run rejected: %v", err)
	}
}

// Without a SpecCheck the oracle keeps the strict exactly-once rule:
// any cancelled span in the trace is itself a violation.
func TestCancelledSpanRejectedWithoutSpecCheck(t *testing.T) {
	g, res, _ := runSpecSim(t)
	err := Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes})
	if err == nil || !strings.Contains(err.Error(), "speculation checking is not enabled") {
		t.Fatalf("err = %v, want cancelled-attempt violation", err)
	}
}

// A span marked both failed and cancelled is malformed regardless of
// which checks are enabled.
func TestSpecCheckRejectsFailedAndCancelled(t *testing.T) {
	g, res, plan := runSpecSim(t)
	for i := range res.Trace.Spans {
		if res.Trace.Spans[i].Cancelled {
			res.Trace.Spans[i].Failed = true
			break
		}
	}
	err := Check(g, res.Trace, specOpts(res, plan))
	if err == nil || !strings.Contains(err.Error(), "both failed and cancelled") {
		t.Fatalf("err = %v, want malformed-span violation", err)
	}
}

// Un-cancelling a loser forges a second effective completion of its
// task: exactly-once-effective must catch it.
func TestSpecCheckRejectsDoubleSuccess(t *testing.T) {
	g, res, plan := runSpecSim(t)
	for i := range res.Trace.Spans {
		if res.Trace.Spans[i].Cancelled {
			res.Trace.Spans[i].Cancelled = false
			break
		}
	}
	err := Check(g, res.Trace, specOpts(res, plan))
	if err == nil || !strings.Contains(err.Error(), "executed successfully twice") {
		t.Fatalf("err = %v, want double-execution violation", err)
	}
}

// Forging extra cancelled attempts of one task must trip the replica
// budget.
func TestSpecCheckReplicaBudget(t *testing.T) {
	g, res, plan := runSpecSim(t)
	var cancelled int
	for i := range res.Trace.Spans {
		if res.Trace.Spans[i].Cancelled {
			cancelled = i
			break
		}
	}
	for i := 0; i < 2; i++ {
		res.Trace.Spans = append(res.Trace.Spans, res.Trace.Spans[cancelled])
	}
	err := Check(g, res.Trace, specOpts(res, plan))
	if err == nil || !strings.Contains(err.Error(), "replica budget") {
		t.Fatalf("err = %v, want replica-budget violation", err)
	}
}

// A cancelled span ending before its task's effective completion means
// the engine discarded an attempt that finished first — forged
// first-success-wins arbitration.
func TestSpecCheckFirstSuccessWins(t *testing.T) {
	g, res, plan := runSpecSim(t)
	loser := -1
	for i := range res.Trace.Spans {
		if res.Trace.Spans[i].Cancelled {
			loser = i
			break
		}
	}
	if loser < 0 {
		t.Fatal("no cancelled span")
	}
	s := &res.Trace.Spans[loser]
	s.End = s.Start // degenerate: certainly before the effective end
	s.Wait = 0
	err := Check(g, res.Trace, specOpts(res, plan))
	if err == nil || !strings.Contains(err.Error(), "first-success-wins") {
		t.Fatalf("err = %v, want first-success-wins violation", err)
	}
}
