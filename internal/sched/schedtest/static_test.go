package schedtest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/heft"
	"multiprio/internal/sim"
	"multiprio/internal/trace"
)

var staticAlgs = []struct {
	name string
	alg  heft.Algorithm
}{
	{"heft", heft.RankUpward},
	{"heft-oft", heft.RankOptimistic},
}

// placementProjection renders the per-worker effective execution order
// of a trace in a deterministic text form. Under pinned replay this is
// exactly the plan's Order — on both engines, regardless of clock: the
// simulator's virtual timeline and the threaded engine's wall clock
// cannot agree on timestamps, but they must agree on *placement*.
func placementProjection(nWorkers int, tr *trace.Trace) []byte {
	type ev struct {
		start float64
		id    int64
	}
	byW := make([][]ev, nWorkers)
	for i := range tr.Spans {
		s := &tr.Spans[i]
		if s.Failed || s.Cancelled {
			continue
		}
		byW[s.Worker] = append(byW[s.Worker], ev{s.Start, s.TaskID})
	}
	var b []byte
	for w := range byW {
		evs := byW[w]
		for i := 1; i < len(evs); i++ { // spans per worker are serialized
			for j := i; j > 0 && evs[j-1].start > evs[j].start; j-- {
				evs[j-1], evs[j] = evs[j], evs[j-1]
			}
		}
		b = append(b, 'w')
		b = strconv.AppendInt(b, int64(w), 10)
		b = append(b, ':')
		for _, e := range evs {
			b = append(b, ' ')
			b = strconv.AppendInt(b, e.id, 10)
		}
		b = append(b, '\n')
	}
	return b
}

// TestStaticNoNoiseGolden pins zero-noise, zero-fault pinned replay
// byte-for-byte: the SHA-256 of every (workload, algorithm) plan and of
// its simulated canonical trace against a golden file (standard
// -update protocol), byte-identical traces across repeated runs, and a
// placement projection that is identical between the simulator and the
// threaded engine — and equal to the plan itself.
func TestStaticNoNoiseGolden(t *testing.T) {
	m := conformanceMachine()
	var got bytes.Buffer
	for _, w := range conformanceWorkloads(m) {
		for _, sa := range staticAlgs {
			// Plan digest: BuildPlan is a pure function of (graph,
			// machine, model).
			plan, err := heft.BuildPlan(runtime.NewEnv(m, w.build()), sa.alg)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, sa.name, err)
			}
			fmt.Fprintf(&got, "%s/%s plan %x\n", w.name, sa.name, sha256.Sum256(plan.Canonical()))

			// Simulated replay, twice: byte-identical canonical traces.
			runSim := func() (*sim.Result, *heft.Sched) {
				hs := heft.NewStatic(sa.alg)
				res, err := sim.Run(m, w.build(), hs, runtime.WithMemEvents())
				if err != nil {
					t.Fatalf("%s/%s: sim: %v", w.name, sa.name, err)
				}
				return res, hs
			}
			res, hs := runSim()
			res2, _ := runSim()
			if !bytes.Equal(res.Trace.Canonical(), res2.Trace.Canonical()) {
				t.Fatalf("%s/%s: repeated replay produced a different trace", w.name, sa.name)
			}
			fmt.Fprintf(&got, "%s/%s sim %x\n", w.name, sa.name, sha256.Sum256(res.Trace.Canonical()))

			// The replayed placement must equal the plan, on both engines.
			planProj := placementProjection(len(m.Units), res.Trace)
			var want []byte
			for wi, ord := range hs.Plan().Order {
				want = append(want, 'w')
				want = strconv.AppendInt(want, int64(wi), 10)
				want = append(want, ':')
				for _, id := range ord {
					want = append(want, ' ')
					want = strconv.AppendInt(want, id, 10)
				}
				want = append(want, '\n')
			}
			if !bytes.Equal(planProj, want) {
				t.Fatalf("%s/%s: sim placement deviates from plan:\n got: %s\nwant: %s",
					w.name, sa.name, planProj, want)
			}
			ht := heft.NewStatic(sa.alg)
			eng, err := runtime.NewThreadedEngine(m, ht)
			if err != nil {
				t.Fatal(err)
			}
			tres, err := eng.Run(w.build())
			if err != nil {
				t.Fatalf("%s/%s: threaded: %v", w.name, sa.name, err)
			}
			if proj := placementProjection(len(m.Units), tres.Trace); !bytes.Equal(proj, planProj) {
				t.Fatalf("%s/%s: engines disagree on placement:\n  sim: %s\nthread: %s",
					w.name, sa.name, planProj, proj)
			}
		}
	}
	path := filepath.Join("testdata", "static_sha256.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden digests (run with -update to create): %v", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("static digest drifted at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestStaticConformanceBothEngines runs pinned replay and hybrid over
// every conformance workload on both engines under the full oracle,
// including StaticCheck.
func TestStaticConformanceBothEngines(t *testing.T) {
	m := conformanceMachine()
	modes := []struct {
		name string
		mk   func(heft.Algorithm) *heft.Sched
	}{
		{"static", heft.NewStatic},
		{"hybrid", func(a heft.Algorithm) *heft.Sched {
			return heft.NewHybrid(a, core.New(core.Defaults()))
		}},
	}
	for _, w := range conformanceWorkloads(m) {
		for _, sa := range staticAlgs {
			for _, mode := range modes {
				w, sa, mode := w, sa, mode
				t.Run(w.name+"/"+sa.name+"/"+mode.name, func(t *testing.T) {
					t.Parallel()
					hs := mode.mk(sa.alg)
					g := w.build()
					res, err := sim.Run(m, g, hs, runtime.WithMemEvents())
					if err != nil {
						t.Fatalf("sim: %v", err)
					}
					if err := oracle.Check(g, res.Trace, oracle.Options{
						OverflowBytes: res.OverflowBytes,
						Static:        oracle.StaticCheckFor(hs, nil),
					}); err != nil {
						t.Fatalf("sim oracle: %v", err)
					}
					if err := checkRunState(res); err != nil {
						t.Fatalf("sim run state: %v", err)
					}
					ht := mode.mk(sa.alg)
					eng, err := runtime.NewThreadedEngine(m, ht)
					if err != nil {
						t.Fatal(err)
					}
					g2 := w.build()
					tres, err := eng.Run(g2)
					if err != nil {
						t.Fatalf("threaded: %v", err)
					}
					if err := oracle.Check(g2, tres.Trace, oracle.Options{
						Eps:    2e-3,
						Static: oracle.StaticCheckFor(ht, nil),
					}); err != nil {
						t.Fatalf("threaded oracle: %v", err)
					}
					if err := checkRunState(tres); err != nil {
						t.Fatalf("threaded run state: %v", err)
					}
				})
			}
		}
	}
}
