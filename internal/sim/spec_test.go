package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"multiprio/internal/core"
	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
	"multiprio/internal/spec"
)

// specPlan slows worker 0 by far more than the slack factor for the
// whole run, with speculation on: kernels landing there straggle and
// must be rescued by replicas.
func specPlan() *fault.Plan {
	return &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.SlowWorker, Worker: 0, At: 0, Until: 1e3, Factor: 16},
		},
		Speculation: spec.Policy{Enabled: true, SlackFactor: 1.5},
	}
}

func TestSimSpeculationReplicaWins(t *testing.T) {
	m := faultMachine(t)
	g := faultGraph(m, 11)
	res, err := Run(m, g, core.New(core.Defaults()),
		runtime.WithMemEvents(),
		runtime.WithFaultPlan(specPlan()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Flagged == 0 || res.Spec.Launched == 0 {
		t.Fatalf("no straggler flagged under a 16x slowdown: %+v", res.Spec)
	}
	if res.Spec.ReplicaWins == 0 {
		t.Fatalf("no replica win under a 16x slowdown: %+v", res.Spec)
	}
	// Every cancelled span is a cancelled attempt, but not every
	// cancelled attempt has a span: losers beaten before their kernel
	// started (still staging, or parked on a commute lock) leave no
	// execution record.
	got := 0
	for _, w := range res.Workers {
		got += w.CancelledAttempts
	}
	if got == 0 || got > res.Spec.Cancelled {
		t.Errorf("trace has %d cancelled spans, stats count %d cancelled attempts", got, res.Spec.Cancelled)
	}
	if res.Spec.WastedWork <= 0 {
		t.Errorf("replica wins without wasted work: %+v", res.Spec)
	}
	if err := oracle.Check(g, res.Trace, oracle.Options{
		OverflowBytes: res.OverflowBytes,
		Spec:          &oracle.SpecCheck{MaxReplicas: specPlan().SpecPolicy().ReplicaCap()},
	}); err != nil {
		t.Fatalf("oracle rejected speculation run: %v", err)
	}
}

// TestSimSpeculationReducesMakespan is the mechanism's reason to exist:
// under a heavy unannounced slowdown, turning speculation on must beat
// leaving the stragglers alone.
func TestSimSpeculationReducesMakespan(t *testing.T) {
	m := faultMachine(t)
	run := func(speculate bool) float64 {
		p := specPlan()
		p.Speculation.Enabled = speculate
		res, err := Run(m, faultGraph(m, 11), core.New(core.Defaults()),
			runtime.WithFaultPlan(p))
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	plain, spec := run(false), run(true)
	if spec >= plain {
		t.Fatalf("speculation did not help: %g with vs %g without", spec, plain)
	}
}

// TestSimSpeculationDeterminism: speculation decisions ride the same
// virtual clock and linearization sequence as everything else, so the
// canonical trace — cancelled spans included — must reproduce byte for
// byte.
func TestSimSpeculationDeterminism(t *testing.T) {
	m := faultMachine(t)
	run := func() *Result {
		res, err := Run(m, faultGraph(m, 11), core.New(core.Defaults()),
			runtime.WithMemEvents(),
			runtime.WithFaultPlan(specPlan()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !bytes.Equal(a.Trace.Canonical(), b.Trace.Canonical()) {
		t.Fatal("same seed and plan produced different speculation traces")
	}
	if a.Spec != b.Spec {
		t.Fatalf("speculation stats differ: %+v vs %+v", a.Spec, b.Spec)
	}
}

// TestSimSpeculationNoopWithoutStragglers: with speculation enabled but
// nothing slowed, no straggler-detection event ever fires (the sim only
// schedules one for kernels that will overrun), so the canonical trace
// is byte-identical to a run without any fault machinery. This is the
// trace-neutrality property the conformance matrix pins per scheduler.
func TestSimSpeculationNoopWithoutStragglers(t *testing.T) {
	m := faultMachine(t)
	run := func(p *fault.Plan) *Result {
		res, err := Run(m, faultGraph(m, 21), core.New(core.Defaults()),
			runtime.WithMemEvents(),
			runtime.WithFaultPlan(p))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(nil)
	specOn := run(&fault.Plan{Speculation: spec.Policy{Enabled: true}})
	if !bytes.Equal(bare.Trace.Canonical(), specOn.Trace.Canonical()) {
		t.Fatal("speculation with no stragglers perturbed the trace")
	}
	if specOn.Spec.Flagged != 0 || specOn.Spec.Launched != 0 {
		t.Fatalf("flags without stragglers: %+v", specOn.Spec)
	}
}

// TestSimSpeculationSurvivesKills: kills and speculation compose — a
// straggling attempt (or its replica) dying on a killed worker rolls
// back through the normal retry path and the run still satisfies the
// oracle.
func TestSimSpeculationSurvivesKills(t *testing.T) {
	m := faultMachine(t)
	g := faultGraph(m, 11)
	p := specPlan()
	p.Events = append(p.Events, fault.Event{Kind: fault.KillWorker, Worker: 1, At: 0.01})
	res, err := Run(m, g, core.New(core.Defaults()),
		runtime.WithMemEvents(),
		runtime.WithFaultPlan(p))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Kills != 1 {
		t.Fatalf("kills = %d, want 1", res.Faults.Kills)
	}
	if err := oracle.Check(g, res.Trace, oracle.Options{
		OverflowBytes: res.OverflowBytes,
		Faults: &oracle.FaultCheck{
			MaxRetries: p.RetryCap(),
			Kills:      res.Faults.AppliedKills,
			Strict:     true,
		},
		Spec: &oracle.SpecCheck{MaxReplicas: p.SpecPolicy().ReplicaCap()},
	}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// TestSimWatchdogDump arms a watchdog with an immediately-expired
// wall-clock deadline: the run must abort with ErrWatchdog and the dump
// must carry the progress summary, per-worker state and the decision
// tail.
func TestSimWatchdogDump(t *testing.T) {
	m := faultMachine(t)
	var buf bytes.Buffer
	res, err := Run(m, faultGraph(m, 11), core.New(core.Defaults()),
		runtime.WithWatchdog(time.Nanosecond),
		runtime.WithWatchdogOutput(&buf))
	if !errors.Is(err, runtime.ErrWatchdog) || res != nil {
		t.Fatalf("result %v, err = %v, want no result and ErrWatchdog", res, err)
	}
	dump := buf.String()
	for _, want := range []string{"sim watchdog", "tasks-left=", "worker ", "decision tail"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestSimWatchdogQuietOnHealthyRuns: a generous deadline must neither
// fire nor perturb the trace (the tail probe records decisions but the
// golden-neutrality of probes is already pinned; here we assert the
// run simply completes).
func TestSimWatchdogQuietOnHealthyRuns(t *testing.T) {
	m := faultMachine(t)
	var buf bytes.Buffer
	res, err := Run(m, faultGraph(m, 11), core.New(core.Defaults()),
		runtime.WithWatchdog(time.Minute),
		runtime.WithWatchdogOutput(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("empty result from watched run")
	}
	if buf.Len() != 0 {
		t.Fatalf("watchdog wrote a dump on a healthy run:\n%s", buf.String())
	}
}
