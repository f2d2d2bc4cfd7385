package sim

import (
	"bytes"
	"errors"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/obs"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
)

// The run frame (runtime.RunFrame) is shared by both engines, so its
// contract is tested once over both, through runtime.Engine. The tests
// live here because this package can import both constructors.

// bothEngines are the two validating constructors behind one signature.
var bothEngines = []struct {
	name string
	mk   func(*platform.Machine, runtime.Scheduler, ...runtime.Option) (runtime.Engine, error)
}{
	{"sim", func(m *platform.Machine, s runtime.Scheduler, o ...runtime.Option) (runtime.Engine, error) {
		return NewEngine(m, s, o...)
	}},
	{"threaded", func(m *platform.Machine, s runtime.Scheduler, o ...runtime.Option) (runtime.Engine, error) {
		return runtime.NewThreadedEngine(m, s, o...)
	}},
}

// lifecycleObserver records the observer bracket of one run.
type lifecycleObserver struct {
	mu        sync.Mutex
	starts    []runtime.RunInfo
	ends      int
	res       *runtime.Result
	err       error
	decisions int
}

func (o *lifecycleObserver) RunStart(info runtime.RunInfo) {
	o.mu.Lock()
	o.starts = append(o.starts, info)
	o.mu.Unlock()
}

func (o *lifecycleObserver) RunEnd(res *runtime.Result, err error) {
	o.mu.Lock()
	o.ends++
	o.res, o.err = res, err
	o.mu.Unlock()
}

func (o *lifecycleObserver) Decision(obs.Decision) {
	o.mu.Lock()
	o.decisions++
	o.mu.Unlock()
}

func (o *lifecycleObserver) Counter(string, float64, int64, float64) {}

// sleepGraph builds n independent CPU tasks of d seconds (0: as good as
// instant): cost d for the simulator, a kernel sleeping d for the
// threaded engine.
func sleepGraph(n int, d time.Duration) *runtime.Graph {
	g := runtime.NewGraph()
	for i := 0; i < n; i++ {
		g.Submit(runtime.TaskSpec{
			Kind: "work", Cost: []float64{max(d.Seconds(), 1e-6)},
			Run: func(runtime.WorkerInfo) { time.Sleep(d) },
		})
	}
	return g
}

// panicSched is eager with a bug: it panics in the named Scheduler call —
// for Push, on the one task with a predecessor, so the panic comes out
// of a completion's release and not out of the roots' admission.
type panicSched struct {
	runtime.Scheduler
	in string
}

func (s *panicSched) bug(call string) {
	if s.in == call {
		panic("policy bug")
	}
}

func (s *panicSched) Init(env *runtime.Env) { s.bug("Init"); s.Scheduler.Init(env) }
func (s *panicSched) Push(t *runtime.Task) {
	if t.NumPreds() > 0 {
		s.bug("Push")
	}
	s.Scheduler.Push(t)
}
func (s *panicSched) Pop(w runtime.WorkerInfo) *runtime.Task { s.bug("Pop"); return s.Scheduler.Pop(w) }
func (s *panicSched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {
	s.bug("TaskDone")
	s.Scheduler.TaskDone(t, w)
}
func (s *panicSched) WorkerDown(runtime.WorkerInfo) { s.bug("WorkerDown") }

func TestRunLifecycleBothEngines(t *testing.T) {
	unwedge := make(chan struct{})
	defer close(unwedge) // lets the threaded engine's abandoned kernel exit

	type testCase struct {
		name  string
		graph func() *runtime.Graph
		// opts gets the engine name: the watchdog deadline is wall-clock
		// in both, but only the threaded engine can be wedged for real.
		opts    func(engine string, dump *bytes.Buffer) []runtime.Option
		sched   func() runtime.Scheduler // nil: eager
		wantErr string                   // substring of the run error; "" = success
		wantIs  error                    // a sentinel the run error must wrap; nil = none
		check   func(t *testing.T, engine, dump string)
	}
	cases := []testCase{
		{
			name:  "success",
			graph: func() *runtime.Graph { return sleepGraph(6, 0) },
		},
		{
			name: "graph fails validation",
			graph: func() *runtime.Graph {
				g := sleepGraph(2, 0)
				g.Submit(runtime.TaskSpec{Kind: "nowhere"}) // no implementation
				return g
			},
			wantErr: "has no implementation",
		},
		{
			name:  "arrival plan of the wrong length",
			graph: func() *runtime.Graph { return sleepGraph(3, 0) },
			opts: func(string, *bytes.Buffer) []runtime.Option {
				return []runtime.Option{runtime.WithArrivals([]float64{0})}
			},
			wantErr: "arrival plan covers 1 tasks, graph has 3",
		},
		{
			name:  "NaN arrival time",
			graph: func() *runtime.Graph { return sleepGraph(3, 0) },
			opts: func(string, *bytes.Buffer) []runtime.Option {
				return []runtime.Option{runtime.WithArrivals([]float64{0, math.NaN(), 0})}
			},
			wantErr: "invalid arrival time",
		},
		{
			name: "watchdog abort",
			graph: func() *runtime.Graph {
				// Enough tasks that the simulator reaches its first
				// wall-clock check (every 256 events); one kernel wedges
				// the threaded engine.
				g := sleepGraph(300, 0)
				g.Submit(runtime.TaskSpec{
					Kind: "wedged", Cost: []float64{1e-3},
					Run: func(runtime.WorkerInfo) { <-unwedge },
				})
				return g
			},
			opts: func(engine string, dump *bytes.Buffer) []runtime.Option {
				deadline := time.Nanosecond
				if engine == "threaded" {
					deadline = 30 * time.Millisecond
				}
				return []runtime.Option{runtime.WithWatchdog(deadline), runtime.WithWatchdogOutput(dump)}
			},
			wantIs: runtime.ErrWatchdog,
			check:  checkWatchdogDump,
		},
		{
			// Every worker dies while tasks remain: the run ends with the
			// core's unfinished-run error on both engines, whether the
			// engine's event queue drained or its goroutines all left.
			name:  "every worker killed",
			graph: func() *runtime.Graph { return sleepGraph(8, 50*time.Millisecond) },
			opts: func(string, *bytes.Buffer) []runtime.Option {
				return []runtime.Option{runtime.WithFaultPlan(&fault.Plan{
					Events: []fault.Event{
						{Kind: fault.KillWorker, Worker: 0, At: 0.010},
						{Kind: fault.KillWorker, Worker: 1, At: 0.010},
						{Kind: fault.KillWorker, Worker: 2, At: 0.010},
					},
				})}
			},
			wantIs: runtime.ErrStarved,
		},
		{
			// Three 100 ms tasks occupy the three workers. Killing worker
			// 0 at 20 ms rolls its task back (retry 1 of 1); the retry
			// runs on worker 1 or 2 from 100 ms, and killing both at
			// 150 ms aborts it a second time: budget exhausted.
			name:  "retry budget exhausted",
			graph: func() *runtime.Graph { return sleepGraph(3, 100*time.Millisecond) },
			opts: func(string, *bytes.Buffer) []runtime.Option {
				return []runtime.Option{runtime.WithFaultPlan(&fault.Plan{
					MaxRetries: 1, Backoff: 1e-4,
					Events: []fault.Event{
						{Kind: fault.KillWorker, Worker: 0, At: 0.020},
						{Kind: fault.KillWorker, Worker: 1, At: 0.150},
						{Kind: fault.KillWorker, Worker: 2, At: 0.150},
					},
				})}
			},
			wantErr: "exceeded 1 retries",
		},
	}
	// A policy that panics fails the run, not the process, whichever call
	// it panics in and whichever goroutine made it: four 2 ms tasks, a
	// fifth depending on the first, and a kill at 1 ms for WorkerDown.
	for _, call := range []string{"Init", "Push", "Pop", "TaskDone", "WorkerDown"} {
		cases = append(cases, testCase{
			name: "scheduler panics in " + call,
			graph: func() *runtime.Graph {
				g := sleepGraph(4, 2*time.Millisecond)
				g.Declare(g.Tasks[0], g.Submit(runtime.TaskSpec{Kind: "work", Cost: []float64{1e-6}}))
				return g
			},
			opts: func(string, *bytes.Buffer) []runtime.Option {
				if call != "WorkerDown" {
					return nil
				}
				return []runtime.Option{runtime.WithFaultPlan(&fault.Plan{
					Events: []fault.Event{{Kind: fault.KillWorker, Worker: 2, At: 0.001}},
				})}
			},
			sched:   func() runtime.Scheduler { return &panicSched{Scheduler: eager.New(), in: call} },
			wantErr: "scheduler eager panicked in " + call + ": policy bug",
		})
	}
	for _, eng := range bothEngines {
		for _, tc := range cases {
			t.Run(eng.name+"/"+tc.name, func(t *testing.T) {
				var dump bytes.Buffer
				o := &lifecycleObserver{}
				opts := []runtime.Option{runtime.WithObserver(o)}
				if tc.opts != nil {
					opts = append(opts, tc.opts(eng.name, &dump)...)
				}
				var s runtime.Scheduler = eager.New()
				if tc.sched != nil {
					s = tc.sched()
				}
				e, err := eng.mk(platform.CPUOnly(3), s, opts...)
				if err != nil {
					t.Fatal(err)
				}
				g := tc.graph()
				res, err := e.Run(g)

				if (res == nil) != (err != nil) {
					t.Fatalf("res == nil is %v but err is %v", res == nil, err)
				}
				if tc.wantErr == "" && tc.wantIs == nil && err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
					t.Fatalf("err = %v, want one wrapping %v", err, tc.wantIs)
				}
				if (tc.sched != nil || tc.wantIs != nil) && !strings.HasPrefix(err.Error(), eng.name+": ") {
					t.Errorf("err = %v, want it to name the engine %q first", err, eng.name)
				}
				if len(o.starts) != 1 || o.ends != 1 {
					t.Fatalf("observer saw %d RunStart and %d RunEnd, want exactly one of each", len(o.starts), o.ends)
				}
				if o.res != res || o.err != err {
					t.Errorf("RunEnd got (%p, %v), Run returned (%p, %v)", o.res, o.err, res, err)
				}
				info := o.starts[0]
				if info.Engine != eng.name || info.Tasks != len(g.Tasks) || info.Scheduler != "eager" || info.Machine == nil {
					t.Errorf("RunInfo = %+v, want engine %q, %d tasks, scheduler eager", info, eng.name, len(g.Tasks))
				}
				if err == nil {
					if len(res.Workers) != 3 || res.Trace == nil || len(res.Trace.Spans) != len(g.Tasks) {
						t.Errorf("result not assembled: %d workers, trace %v", len(res.Workers), res.Trace)
					}
					if o.decisions == 0 {
						t.Error("the observer's probe half saw no decision")
					}
				}
				if tc.check != nil {
					tc.check(t, eng.name, dump.String())
				}
			})
		}
	}
}

// checkWatchdogDump holds the dump of the "watchdog abort" case, which
// the run core writes for both engines, to one shape: a header naming
// the engine, a progress line, one line per worker, and a decision tail
// that is not empty.
func checkWatchdogDump(t *testing.T, engine, dump string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(dump, "\n"), "\n")
	shape := []*regexp.Regexp{
		regexp.MustCompile(`^` + engine + ` watchdog: no completion after \S+ wall time$`),
		regexp.MustCompile(`^  t=\S+ tasks-left=\d+/301 attempts=\d+ scheduler=eager$`),
	}
	worker := regexp.MustCompile(`^  worker \S+ +(idle|dead|running task \d+ \((work|wedged)\))$`)
	for range 3 {
		shape = append(shape, worker)
	}
	shape = append(shape, regexp.MustCompile(`^  decision tail \(oldest first\):$`))
	if len(lines) <= len(shape) {
		t.Fatalf("watchdog dump has %d lines, want more than %d:\n%s", len(lines), len(shape), dump)
	}
	for i, re := range shape {
		if !re.MatchString(lines[i]) {
			t.Errorf("watchdog dump line %d = %q, want it to match %s", i, lines[i], re)
		}
	}
	if !strings.Contains(dump, "running task") {
		t.Errorf("watchdog dump shows no worker running a task:\n%s", dump)
	}
	for _, l := range lines[len(shape):] {
		if !strings.HasPrefix(l, "    ") {
			t.Errorf("watchdog dump's decision tail has line %q, want a decision", l)
		}
	}
	if !strings.Contains(dump, "    "+obs.TaskDone.String()+" t") {
		t.Errorf("watchdog dump's decision tail has no completion:\n%s", dump)
	}
}

// TestConstructorsRejectNilArguments: every way to start a run goes
// through a validating constructor, the one-shot sim.Run included.
func TestConstructorsRejectNilArguments(t *testing.T) {
	m := platform.CPUOnly(2)
	for _, eng := range bothEngines {
		if _, err := eng.mk(nil, eager.New()); err == nil || !strings.Contains(err.Error(), "nil machine") {
			t.Errorf("%s: nil machine: err = %v", eng.name, err)
		}
		if _, err := eng.mk(m, nil); err == nil || !strings.Contains(err.Error(), "nil scheduler") {
			t.Errorf("%s: nil scheduler: err = %v", eng.name, err)
		}
	}
	if _, err := Run(nil, sleepGraph(1, 0), eager.New()); err == nil || !strings.Contains(err.Error(), "nil machine") {
		t.Errorf("sim.Run: nil machine: err = %v", err)
	}
	if _, err := Run(m, sleepGraph(1, 0), nil); err == nil || !strings.Contains(err.Error(), "nil scheduler") {
		t.Errorf("sim.Run: nil scheduler: err = %v", err)
	}
}

// modelSpy records the performance model its scheduler is initialized
// with.
type modelSpy struct {
	runtime.Scheduler
	model perfmodel.Estimator
}

func (s *modelSpy) Init(env *runtime.Env) {
	s.model = env.Model
	s.Scheduler.Init(env)
}

// halfOracle is a recognizable estimator: half the oracle's estimate.
type halfOracle struct{ perfmodel.Oracle }

// TestWithEstimatorReachesBothEngines is the regression test for the
// threaded engine dropping WithEstimator: the configured estimator is
// the model the scheduler sees, and without one each engine falls back
// to its own default (simulator: the oracle; threaded: the history).
func TestWithEstimatorReachesBothEngines(t *testing.T) {
	est := &halfOracle{}
	hist := perfmodel.NewHistory()
	defaults := map[string]perfmodel.Estimator{"sim": perfmodel.Oracle{}, "threaded": hist}
	for _, eng := range bothEngines {
		for _, tc := range []struct {
			name string
			opts []runtime.Option
			want perfmodel.Estimator
		}{
			{"estimator wins", []runtime.Option{runtime.WithHistory(hist), runtime.WithEstimator(est)}, est},
			{"engine default", []runtime.Option{runtime.WithHistory(hist)}, defaults[eng.name]},
		} {
			spy := &modelSpy{Scheduler: eager.New()}
			e, err := eng.mk(platform.CPUOnly(2), spy, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(sleepGraph(4, 0)); err != nil {
				t.Fatalf("%s/%s: %v", eng.name, tc.name, err)
			}
			if spy.model != tc.want {
				t.Errorf("%s/%s: scheduler saw model %T %v, want %T %v", eng.name, tc.name, spy.model, spy.model, tc.want, tc.want)
			}
		}
	}
}
