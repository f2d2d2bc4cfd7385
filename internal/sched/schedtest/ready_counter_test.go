package schedtest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiprio/internal/fault"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/distrib"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"
	"multiprio/internal/spec"
	"multiprio/internal/stream"
)

// popAudit sits between the simulator and a policy (or wrapper stack)
// and keeps the simulator's own book: tasks pushed minus tasks handed
// out. The simulator skips Pop while that difference is zero, so the
// audit must never see such a call. It forwards WorkerDown so fault
// runs behave exactly as without it.
type popAudit struct {
	inner     runtime.Scheduler
	held      int
	pops      int
	emptyPops int
}

func (a *popAudit) Name() string          { return a.inner.Name() }
func (a *popAudit) Init(env *runtime.Env) { a.inner.Init(env) }
func (a *popAudit) Push(t *runtime.Task)  { a.held++; a.inner.Push(t) }
func (a *popAudit) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {
	a.inner.TaskDone(t, w)
}
func (a *popAudit) Pop(w runtime.WorkerInfo) *runtime.Task {
	a.pops++
	if a.held == 0 {
		a.emptyPops++
	}
	t := a.inner.Pop(w)
	if t != nil {
		a.held--
	}
	return t
}
func (a *popAudit) WorkerDown(w runtime.WorkerInfo) {
	if fo, ok := a.inner.(runtime.FaultObserver); ok {
		fo.WorkerDown(w)
	}
}

// TestSimSkipsPopWithNothingReady runs the simulator's run modes that
// push outside the plain dependency-release path — fault retries,
// speculative replicas (eager drops the stale ones internally, so the
// engine's counter only bounds what it holds), streamed arrivals held
// back by the Fair wrapper, and the full Fair ∘ distrib ∘ heft-hybrid
// stack with a worker killed mid-run — and checks that (a) the engine never
// calls Pop while nothing it pushed is un-popped, (b) every run still
// completes, and (c) the canonical traces are the ones recorded before
// the engine started skipping: the skipped calls decided nothing.
// Regenerate after an intentional behaviour change with
// `go test ./internal/sched/schedtest -run TestSimSkipsPopWithNothingReady -update`.
func TestSimSkipsPopWithNothingReady(t *testing.T) {
	m := conformanceMachine()
	randdagW := conformanceWorkloads(m)[3]
	choleskyW := conformanceWorkloads(m)[0]
	policy := func(name string) func() runtime.Scheduler {
		for _, p := range policies {
			if p.name == name {
				return p.mk
			}
		}
		t.Fatalf("no conformance policy %q", name)
		return nil
	}
	horizon := batchHorizon(t, m, randdagW.build)

	type scenario struct {
		name string
		run  func(t *testing.T) (*popAudit, *sim.Result, error)
	}
	faulty := func(pol string, build func() *runtime.Graph) func(*testing.T) (*popAudit, *sim.Result, error) {
		return func(t *testing.T) (*popAudit, *sim.Result, error) {
			plan := fault.Generate(m, fault.Spec{Seed: 42, Kills: 1, Slowdowns: 2,
				TransferFaults: 2, ModelNoise: 0.15, Horizon: horizon})
			a := &popAudit{inner: policy(pol)()}
			res, err := sim.Run(m, build(), a, runtime.WithMemEvents(), runtime.WithFaultPlan(plan))
			if err == nil && res.Faults.Retries == 0 {
				t.Errorf("fault scenario retried nothing: %+v", res.Faults)
			}
			return a, res, err
		}
	}
	scenarios := []scenario{
		{"faults/multiprio", faulty("multiprio", randdagW.build)},
		{"faults/dmdas", faulty("dmdas", choleskyW.build)},
		{"speculation/eager", func(t *testing.T) (*popAudit, *sim.Result, error) {
			plan := &fault.Plan{
				Events:      []fault.Event{{Kind: fault.SlowWorker, Worker: 0, At: 0, Until: 1e9, Factor: 12}},
				Speculation: spec.Policy{Enabled: true},
			}
			a := &popAudit{inner: policy("eager")()}
			res, err := sim.Run(m, randdagW.build(), a, runtime.WithMemEvents(), runtime.WithFaultPlan(plan))
			if err == nil && res.Spec.Launched == 0 {
				t.Errorf("speculation scenario launched no replica: %+v", res.Spec)
			}
			return a, res, err
		}},
		{"stream/fair(multiprio)", func(t *testing.T) (*popAudit, *sim.Result, error) {
			g := randdagW.build()
			plan := streamPlanFor(t, g, horizon)
			fair := stream.NewFair(policy("multiprio")(), plan)
			a := &popAudit{inner: fair}
			res, err := sim.Run(m, g, a, runtime.WithMemEvents(), runtime.WithArrivals(plan.Arrivals))
			if err == nil {
				deferred := 0
				for _, d := range fair.StreamStats().Deferred {
					deferred += d
				}
				if deferred == 0 {
					t.Error("stream scenario deferred no admission: Fair never held a task")
				}
			}
			return a, res, err
		}},
		{"stream/fair(distrib(heft-hybrid))", func(t *testing.T) (*popAudit, *sim.Result, error) {
			// One node: every node's static plan covers the whole graph,
			// so heft under a multi-node distributor waits for tasks that
			// went elsewhere (it strands with or without the skip).
			cm := clusterMachine(t, 1)
			g := conformanceWorkloads(cm)[3].build()
			plan := streamPlanFor(t, g, horizon)
			for k := range plan.Limits {
				// A pinned plan and an in-flight bound starve each other:
				// stream the arrivals, admit them all.
				plan.Limits[k] = 0
			}
			nodes, err := distrib.New("heft-hybrid", registry.Options{Fallback: "multiprio"})
			if err != nil {
				return nil, nil, err
			}
			// One kill, so the hybrid diverts a worker's remaining plan to
			// its fallback policy from inside WorkerDown.
			kill := &fault.Plan{Events: []fault.Event{{Kind: fault.KillWorker, Worker: 1, At: horizon / 2}}}
			a := &popAudit{inner: stream.NewFair(nodes, plan)}
			res, err := sim.Run(cm, g, a,
				runtime.WithMemEvents(),
				runtime.WithArrivals(plan.Arrivals),
				runtime.WithFaultPlan(kill))
			if err == nil && res.Faults.Kills != 1 {
				t.Errorf("hybrid scenario applied %d kills, want 1", res.Faults.Kills)
			}
			return a, res, err
		}},
	}

	var got bytes.Buffer
	for _, sc := range scenarios {
		a, res, err := sc.run(t)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if a.pops == 0 {
			t.Fatalf("%s: the audit saw no Pop at all", sc.name)
		}
		if a.emptyPops != 0 && !*updateGolden {
			t.Errorf("%s: %d of %d Pop calls came with nothing pushed and un-popped", sc.name, a.emptyPops, a.pops)
		}
		fmt.Fprintf(&got, "%s %x\n", sc.name, sha256.Sum256(res.Trace.Canonical()))
	}
	path := filepath.Join("testdata", "ready_counter_sha256.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden digests (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("canonical trace digests drifted:\n got:\n%swant:\n%s", got.Bytes(), want)
	}
}
