package runtime_test

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	_ "multiprio/internal/sched/all"
	"multiprio/internal/sched/distrib"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"
)

// envKeeper wraps a policy and keeps the Env of its run. After fail
// pushes (0: never) its Push panics, or with drop set swallows the task,
// which leaves the run nothing to do: a deadlock.
type envKeeper struct {
	runtime.Scheduler
	env    *runtime.Env
	fail   int
	drop   bool
	pushes int
}

func (k *envKeeper) Init(env *runtime.Env) {
	k.env, k.pushes = env, 0
	k.Scheduler.Init(env)
}

func (k *envKeeper) Push(t *runtime.Task) {
	if k.pushes++; k.fail > 0 && k.pushes >= k.fail {
		if k.drop {
			return
		}
		panic("policy fails on purpose")
	}
	k.Scheduler.Push(t)
}

// TestNODFillOnlyWhenAsked: only a policy that reads NOD starts a fill —
// MultiPrio and its ablations that keep the criticality tie-break — and
// every other run allocates no table. The wrapper hides NODReader, so a
// MultiPrio run here starts its fill at its first read.
func TestNODFillOnlyWhenAsked(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := randdag.Build(randdag.Params{Layers: 20, Width: 30, Machine: m, Seed: 3})
	for name, want := range map[string]bool{
		"multiprio": true, "multiprio-noevict": true, "multiprio-nolocal": true, "multiprio-flatgain": true,
		"multiprio-nocrit": false, "eager": false, "dmdas": false, "heteroprio": false, "lws": false,
		"heft": false, "prio": false,
	} {
		s, err := registry.New(name, registry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		k := &envKeeper{Scheduler: s}
		if _, err := sim.Run(m, g, k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := runtime.NODStarted(k.env); got != want {
			t.Errorf("%s: NOD fill started = %v, want %v", name, got, want)
		}
	}
}

// initProbe is MultiPrio, a NODReader, recording at Init whether the
// run's fill had started; with fail set its Init panics after that.
type initProbe struct {
	*core.Sched
	env     *runtime.Env
	started bool
	fail    bool
}

func (p *initProbe) Init(env *runtime.Env) {
	p.env, p.started = env, runtime.NODStarted(env)
	if p.fail {
		panic("policy fails on purpose")
	}
	p.Sched.Init(env)
}

// TestNODFillStartsWithTheRun: an engine run of a policy that reads NOD
// has its fill going before the policy's Init, on either engine; with
// the criticality tie-break off nothing starts. A run whose policy fails
// in Init returns with the fill it started finished.
func TestNODFillStartsWithTheRun(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := randdag.Build(randdag.Params{Layers: 20, Width: 30, Machine: m, Seed: 8})
	cpus := platform.CPUOnly(2)
	cpuGraph := randdag.Build(randdag.Params{Layers: 10, Width: 20, GPUShare: -1, MeanCost: 1e-6, Machine: cpus, Seed: 9})
	nocrit := core.Defaults()
	nocrit.DisableCriticality = true
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want bool
	}{{"multiprio", core.Defaults(), true}, {"multiprio-nocrit", nocrit, false}} {
		p := &initProbe{Sched: core.New(tc.cfg)}
		if _, err := sim.Run(m, g, p); err != nil {
			t.Fatal(err)
		}
		if p.started != tc.want || runtime.NODStarted(p.env) != tc.want {
			t.Errorf("sim, %s: fill started before Init %v, after the run %v; want %v",
				tc.name, p.started, runtime.NODStarted(p.env), tc.want)
		}
		p = &initProbe{Sched: core.New(tc.cfg)}
		eng, err := runtime.NewThreadedEngine(cpus, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(cpuGraph); err != nil {
			t.Fatal(err)
		}
		if p.started != tc.want {
			t.Errorf("threaded, %s: fill started before Init %v, want %v", tc.name, p.started, tc.want)
		}
	}
	p := &initProbe{Sched: core.New(core.Defaults()), fail: true}
	if _, err := sim.Run(m, g, p); err == nil {
		t.Fatal("a run whose policy panics in Init succeeded")
	}
	if !p.started || !runtime.NODFilled(p.env) {
		t.Fatalf("failed run: fill started %v, finished %v; want both", p.started, runtime.NODFilled(p.env))
	}
}

// TestNODClusterRunFillsTheRunsTable: on a cluster, MultiPrio runs once
// per node behind the distributor, each on its node's Env, and what
// their reads start is the fill of the run's own Env, the one the
// distributor was given: the nodes share one table.
func TestNODClusterRunFillsTheRunsTable(t *testing.T) {
	m, err := platform.UniformCluster("pair", 2, func(i int) (*platform.Machine, error) {
		return platform.NewHeteroNode(fmt.Sprint("node", i), 3, 35, 1, 900, 1<<30, 10e9, platform.Config{})
	}, 10e9, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	g := randdag.Build(randdag.Params{Layers: 20, Width: 30, Machine: m, Seed: 6})
	s, err := distrib.New("multiprio", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := &envKeeper{Scheduler: s}
	if _, err := sim.Run(m, g, k); err != nil {
		t.Fatal(err)
	}
	if !runtime.NODStarted(k.env) || !runtime.NODFilled(k.env) {
		t.Fatal("the node policies' NOD reads did not fill the run's table")
	}
}

// settle waits for the goroutine count to come back to base: a fill
// goroutine that signalled its end may still be returning.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > base {
		t.Fatalf("%s: %d goroutines, %d before", what, n, base)
	}
}

// TestNODGoroutinesEndWithRun: no fill outlives its run — after a
// hundred MultiPrio runs on the simulator, threaded runs, and runs that
// fail with the fill still going (a panicking policy, a deadlock).
func TestNODGoroutinesEndWithRun(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	small := randdag.Build(randdag.Params{Layers: 10, Width: 20, Machine: m, Seed: 1})
	large := randdag.Build(randdag.Params{Layers: 100, Width: 50, Machine: m, Seed: 2})
	base := goruntime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if _, err := sim.Run(m, small, core.New(core.Defaults())); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, base, "100 simulated runs")

	cpus := platform.CPUOnly(2)
	cpuGraph := randdag.Build(randdag.Params{Layers: 20, Width: 50, GPUShare: -1, MeanCost: 1e-6, Machine: cpus, Seed: 4})
	for i := 0; i < 5; i++ {
		eng, err := runtime.NewThreadedEngine(cpus, core.New(core.Defaults()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(cpuGraph); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, base, "threaded runs")

	for _, tc := range []struct {
		name string
		k    *envKeeper
		want error
	}{
		{"panicking policy", &envKeeper{Scheduler: core.New(core.Defaults()), fail: 2}, nil},
		{"deadlock", &envKeeper{Scheduler: core.New(core.Defaults()), fail: 2, drop: true}, runtime.ErrStarved},
	} {
		_, err := sim.Run(m, large, tc.k)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: run returned %v", tc.name, err)
		}
		if !runtime.NODStarted(tc.k.env) {
			t.Fatalf("%s: the run failed before any NOD was read", tc.name)
		}
		if !runtime.NODFilled(tc.k.env) {
			t.Fatalf("%s: the run returned before its NOD fill finished", tc.name)
		}
		settle(t, base, tc.name)
	}
	eng, err := runtime.NewThreadedEngine(cpus, &envKeeper{Scheduler: core.New(core.Defaults()), fail: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(cpuGraph); err == nil {
		t.Fatal("threaded run with a panicking policy succeeded")
	}
	settle(t, base, "failed threaded run")
}
