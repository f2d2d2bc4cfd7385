package sim

import (
	"bytes"
	"errors"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/core"
	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
)

// faultMachine: 3 CPU workers on RAM plus 2 GPUs on private memory
// nodes, so a kill can empty a whole device node.
func faultMachine(t *testing.T) *platform.Machine {
	t.Helper()
	m, err := platform.NewHeteroNode("fault", 5, 10, 2, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func faultGraph(m *platform.Machine, seed int64) *runtime.Graph {
	return randdag.Build(randdag.Params{Layers: 8, Width: 10, CommuteShare: 0.3,
		Machine: m, Seed: seed})
}

// checkFaultRun validates a fault run against the oracle's
// exactly-once-effective rule with the simulator's strict kill
// semantics (nothing starts or ends past an applied kill).
func checkFaultRun(t *testing.T, g *runtime.Graph, res *Result, plan *fault.Plan) {
	t.Helper()
	err := oracle.Check(g, res.Trace, oracle.Options{
		OverflowBytes: res.OverflowBytes,
		Faults: &oracle.FaultCheck{
			MaxRetries: plan.RetryCap(),
			Kills:      res.Faults.AppliedKills,
			Strict:     true,
		},
	})
	if err != nil {
		t.Fatalf("oracle rejected fault run: %v", err)
	}
}

func TestSimKillRecovery(t *testing.T) {
	m := faultMachine(t)
	g := faultGraph(m, 11)
	base, err := Run(m, g, core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KillWorker, Worker: 0, At: 0.2 * base.Makespan},
		{Kind: fault.KillWorker, Worker: 4, At: 0.4 * base.Makespan},
		{Kind: fault.SlowWorker, Worker: 1, At: 0, Until: base.Makespan, Factor: 3},
	}}
	g2 := faultGraph(m, 11)
	res, err := Run(m, g2, core.New(core.Defaults()),
		runtime.WithMemEvents(),
		runtime.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Kills != 2 {
		t.Errorf("kills = %d, want 2", res.Faults.Kills)
	}
	if res.Makespan < base.Makespan {
		t.Errorf("faulted makespan %g beat the fault-free %g", res.Makespan, base.Makespan)
	}
	checkFaultRun(t, g2, res, plan)
	for _, k := range res.Faults.AppliedKills {
		for _, s := range res.Trace.Spans {
			if s.Worker == k.Unit && !s.Failed && s.End > k.At+1e-12 {
				t.Errorf("span of task %d on killed worker %d ends at %g > kill %g",
					s.TaskID, s.Worker, s.End, k.At)
			}
		}
	}
}

// TestSimFaultDeterminism: same workload, same plan, same seed must
// reproduce the canonical trace byte for byte, including failed spans,
// failed transfers and the memory-event stream.
func TestSimFaultDeterminism(t *testing.T) {
	m := faultMachine(t)
	base, err := Run(m, faultGraph(m, 3), core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.Generate(m, fault.Spec{
		Seed: 99, Horizon: base.Makespan,
		Kills: 2, Slowdowns: 2, TransferFaults: 2, ModelNoise: 0.2,
	})
	run := func() *Result {
		res, err := Run(m, faultGraph(m, 3), core.New(core.Defaults()),
			runtime.WithMemEvents(),
			runtime.WithFaultPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !bytes.Equal(a.Trace.Canonical(), b.Trace.Canonical()) {
		t.Fatalf("same plan and seed produced different traces (%d vs %d bytes)",
			len(a.Trace.Canonical()), len(b.Trace.Canonical()))
	}
	if a.Faults.Kills != b.Faults.Kills || a.Faults.Retries != b.Faults.Retries ||
		a.Faults.TransferFailures != b.Faults.TransferFailures {
		t.Fatalf("fault stats differ: %+v vs %+v", a.Faults, b.Faults)
	}
}

// TestSimEmptyPlanKeepsGoldenTraces guards the golden-trace promise:
// with faults disabled (nil or empty plan), the canonical trace is
// byte-identical to a run of the engine with no fault machinery at all.
func TestSimEmptyPlanKeepsGoldenTraces(t *testing.T) {
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
	empty := run(&fault.Plan{})
	if !bytes.Equal(bare.Trace.Canonical(), empty.Trace.Canonical()) {
		t.Fatal("an empty fault plan perturbed the trace")
	}
	for _, w := range bare.Workers {
		if w.FailedAttempts != 0 {
			t.Fatalf("fault-free run has %d failed attempts on worker %d", w.FailedAttempts, w.Unit)
		}
	}
}

// TestSimDeviceLossRecoversReplicas kills the only worker of a GPU
// memory node mid-run: its replicas are lost or written back, and every
// task still completes exactly once with coherent data.
// rwChains builds six chains of eight RW updates, ten times faster on a
// GPU: the data lives on the device when a kill lands there, and later
// links of each chain must re-fetch the written values from RAM.
func rwChains() *runtime.Graph {
	g := runtime.NewGraph()
	for c := 0; c < 6; c++ {
		h := g.NewData("chain", platform.MiB)
		for i := 0; i < 8; i++ {
			bothTask(g, "upd", 0.004, 0.0004, runtime.Access{Handle: h, Mode: runtime.RW})
		}
	}
	return g
}

func TestSimDeviceLossRecoversReplicas(t *testing.T) {
	m, err := platform.NewHeteroNode("loss", 3, 10, 1, 100, 64*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gpu := platform.UnitID(len(m.Units) - 1)
	base, err := Run(m, rwChains(), core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KillWorker, Worker: gpu, At: 0.3 * base.Makespan},
	}}
	g := rwChains()
	res, err := Run(m, g, core.New(core.Defaults()),
		runtime.WithMemEvents(),
		runtime.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Kills != 1 {
		t.Fatalf("kills = %d, want 1", res.Faults.Kills)
	}
	checkFaultRun(t, g, res, plan)
	// After the device died, everything must have run on the CPUs.
	for _, s := range res.Trace.Spans {
		if s.Worker == gpu && !s.Failed && s.End > plan.Events[0].At+1e-12 {
			t.Errorf("task %d ran on the dead GPU at %g", s.TaskID, s.End)
		}
	}
}

func TestSimTransferFailureReissues(t *testing.T) {
	m := tinyMachine(64 * platform.MiB)
	g := runtime.NewGraph()
	h := g.NewData("x", platform.MiB)
	bothTask(g, "init", 0.001, 0.01, runtime.Access{Handle: h, Mode: runtime.W})
	gpuOnlyTask(g, "use", 0.001, runtime.Access{Handle: h, Mode: runtime.R})
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.FailTransfer, Src: 0, Dst: 1, At: 0, Until: 0.0015},
	}}
	res, err := Run(m, g, eager.New(), runtime.WithMemEvents(), runtime.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.TransferFailures == 0 {
		t.Error("no transfer failures recorded despite a window over the only fetch")
	}
	failedXfers := 0
	for _, x := range res.Trace.Xfers {
		if x.Failed {
			failedXfers++
		}
	}
	if failedXfers != res.Faults.TransferFailures {
		t.Errorf("trace has %d failed transfers, stats say %d", failedXfers, res.Faults.TransferFailures)
	}
	checkFaultRun(t, g, res, plan)
}

// TestSimKillLastCapableWorkerFails: when the fault plan (unlike
// fault.Generate, which refuses) kills the only worker able to run a
// task, the engine must fail with a descriptive error, not hang.
func TestSimKillLastCapableWorkerFails(t *testing.T) {
	m := tinyMachine(64 * platform.MiB)
	g := runtime.NewGraph()
	h := g.NewData("x", platform.MiB)
	gpuOnlyTask(g, "a", 0.01, runtime.Access{Handle: h, Mode: runtime.W})
	gpuOnlyTask(g, "b", 0.01, runtime.Access{Handle: h, Mode: runtime.RW})
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KillWorker, Worker: 1, At: 0.005},
	}}
	_, err := Run(m, g, eager.New(), runtime.WithFaultPlan(plan))
	if err == nil {
		t.Fatal("run with no GPU left for GPU-only work succeeded")
	}
	if !errors.Is(err, runtime.ErrStarved) {
		t.Logf("non-deadlock error (acceptable): %v", err)
	}
}
