package schedtest

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/fmm"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/core"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sched/heteroprio"
	"multiprio/internal/sched/lws"
	"multiprio/internal/sched/prio"
	"multiprio/internal/sim"
)

// policies lists every scheduler with a constructor, so each run gets a
// fresh instance (schedulers keep per-run state).
var policies = []struct {
	name string
	mk   func() runtime.Scheduler
}{
	{"multiprio", func() runtime.Scheduler { return core.New(core.Defaults()) }},
	{"dm", func() runtime.Scheduler { return dmdas.New(dmdas.DM) }},
	{"dmda", func() runtime.Scheduler { return dmdas.New(dmdas.DMDA) }},
	{"dmdas", func() runtime.Scheduler { return dmdas.New(dmdas.DMDAS) }},
	{"heteroprio", func() runtime.Scheduler { return heteroprio.New() }},
	{"lws", func() runtime.Scheduler { return lws.New() }},
	{"prio", func() runtime.Scheduler { return prio.New() }},
	{"eager", func() runtime.Scheduler { return eager.New() }},
}

// conformanceMachine is deliberately memory-starved (8 MiB per GPU)
// so the workloads below overflow device memory and the oracle's
// coherence replay exercises eviction, writeback and capacity
// accounting, not just the happy path.
func conformanceMachine() *platform.Machine {
	m, err := platform.NewHeteroNode("conf", 5, 10, 2, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		panic(err)
	}
	return m
}

// conformanceWorkloads returns one graph builder per application family
// of the paper, sized to run every scheduler in a few milliseconds of
// simulated work while still covering each structural feature: dense
// tiled factorization (wide dependency fan-out), FMM with commute-mode
// accumulations, irregular multifrontal sparse QR, and a random layered
// DAG mixing plain and commuting accesses.
func conformanceWorkloads(m *platform.Machine) []struct {
	name  string
	build func() *runtime.Graph
} {
	return []struct {
		name  string
		build func() *runtime.Graph
	}{
		{"cholesky", func() *runtime.Graph {
			return dense.Cholesky(dense.Params{Tiles: 6, TileSize: 256, Machine: m, UserPriorities: true})
		}},
		{"fmm", func() *runtime.Graph {
			return fmm.Build(fmm.Params{Particles: 2000, Height: 3, GroupSize: 8,
				Clustered: true, UseCommute: true, Machine: m, Seed: 5})
		}},
		{"sparseqr", func() *runtime.Graph {
			stats, ok := sparseqr.ByName("cat_ears_4_4")
			if !ok {
				panic("sparseqr: matrix cat_ears_4_4 missing")
			}
			return sparseqr.Build(stats, sparseqr.Params{Machine: m, PanelWidth: 512, RowBlock: 4096})
		}},
		{"randdag", func() *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: 8, Width: 10, CommuteShare: 0.3,
				Machine: m, Seed: 17})
		}},
	}
}

// TestConformanceSimEngine runs every scheduler over every workload on
// the simulator, validates the full trace (including the memory-event
// stream) against the execution oracle, and checks determinism: a
// rebuilt graph and a fresh scheduler under the same seed must
// reproduce the trace byte for byte.
func TestConformanceSimEngine(t *testing.T) {
	m := conformanceMachine()
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				run := func() (*runtime.Graph, *sim.Result) {
					g := w.build()
					res, err := sim.Run(m, g, pol.mk(), runtime.WithMemEvents())
					if err != nil {
						t.Fatalf("sim.Run: %v", err)
					}
					return g, res
				}
				g, res := run()
				if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if err := checkRunState(res); err != nil {
					t.Fatal(err)
				}
				_, res2 := run()
				if !bytes.Equal(res.Trace.Canonical(), res2.Trace.Canonical()) {
					t.Fatalf("same seed produced a different trace (%d vs %d bytes)",
						len(res.Trace.Canonical()), len(res2.Trace.Canonical()))
				}
			})
		}
	}
}

// TestConformanceThreadedEngine runs every scheduler over every
// workload on the real goroutine engine (kernels are no-ops; the graphs
// carry cost models, not code) and validates the execution records in
// the result's trace through the same oracle. Wall-clock stamps are
// monotonic, so dependency and serialization checks hold with zero
// tolerance; there is no memory-event stream to replay.
func TestConformanceThreadedEngine(t *testing.T) {
	m := conformanceMachine()
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				g := w.build()
				eng, err := runtime.NewThreadedEngine(m, pol.mk())
				if err != nil {
					t.Fatalf("NewThreadedEngine: %v", err)
				}
				res, err := eng.Run(g)
				if err != nil {
					t.Fatalf("threaded run: %v", err)
				}
				if err := oracle.Check(g, res.Trace, oracle.Options{}); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if err := checkRunState(res); err != nil {
					t.Fatal(err)
				}
				if res.Makespan != res.Trace.Makespan {
					t.Errorf("Result.Makespan %v is not the trace's %v", res.Makespan, res.Trace.Makespan)
				}
			})
		}
	}
}

// checkRunState holds a finished run's state to its trace: the task of
// every successful span holds its claim, and its execution record is
// that span. The oracle judges the trace alone; this is the other half,
// the state the engine hands back in Result.Tasks. Once speculation has
// launched a replica the claim test is off: a launch clears its task's
// claim so a worker can pop the replica, and a replica still queued
// when its task commits is never popped, so that task ends unclaimed.
func checkRunState(res *runtime.Result) error {
	claims := res.Spec.Launched == 0
	for _, s := range res.Trace.Spans {
		if s.Failed || s.Cancelled {
			continue
		}
		st := &res.Tasks[s.TaskID]
		switch {
		case claims && !st.Claimed():
			return fmt.Errorf("task %d executed without being claimed", s.TaskID)
		case st.RanOn != s.Worker:
			return fmt.Errorf("task %d records worker %d but its span is on worker %d", s.TaskID, st.RanOn, s.Worker)
		case st.StartAt != s.Start || st.EndAt != s.End:
			return fmt.Errorf("task %d execution record [%g, %g] disagrees with span [%g, %g]",
				s.TaskID, st.StartAt, st.EndAt, s.Start, s.End)
		}
	}
	return nil
}

// TestRunStateCheckDetectsTampering: checkRunState rejects a state no
// run wrote, a record on the wrong worker and a span moved off its
// record.
func TestRunStateCheckDetectsTampering(t *testing.T) {
	m := conformanceMachine()
	run := func(t *testing.T) *runtime.Result {
		g := randdag.Build(randdag.Params{Layers: 4, Width: 6, Machine: m, Seed: 3})
		res, err := sim.Run(m, g, eager.New())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRunState(res); err != nil {
			t.Fatalf("untampered run rejected: %v", err)
		}
		return res
	}
	for _, tc := range []struct {
		name, want string
		tamper     func(res *runtime.Result)
	}{
		{"unclaimed", "without being claimed", func(res *runtime.Result) {
			res.Tasks = make(runtime.RunState, len(res.Tasks))
		}},
		{"wrong worker", "records worker", func(res *runtime.Result) {
			s := &res.Trace.Spans[0]
			s.Worker = (s.Worker + 1) % platform.UnitID(len(m.Units))
		}},
		{"record mismatch", "disagrees with span", func(res *runtime.Result) {
			res.Trace.Spans[1].Start -= 1e-3
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := run(t)
			tc.tamper(res)
			if err := checkRunState(res); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
