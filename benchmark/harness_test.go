package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
		{[]float64{0.31, 0.29, 0.33, 0.30, 0.41}, [3]float64{0.295, 0.31, 0.37}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		for i, got := range [3]float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
				break
			}
		}
	}
}

var allocSink [][]byte

func TestMemDeltaCountsAllocations(t *testing.T) {
	const n, size = 2000, 64
	allocSink = make([][]byte, 0, n)
	before := readMem()
	for i := 0; i < n; i++ {
		allocSink = append(allocSink, make([]byte, size))
	}
	d := readMem().since(before)
	allocSink = nil
	if d.mallocs < n || d.mallocs > n+200 {
		t.Errorf("mallocs delta %v, want about %d", d.mallocs, n)
	}
	if d.bytes < n*size || d.bytes > 2*n*size {
		t.Errorf("bytes delta %v, want about %d", d.bytes, n*size)
	}
}

func TestPeakRSSReadable(t *testing.T) {
	rss, err := peakRSSMiB()
	if err != nil {
		t.Fatal(err)
	}
	if rss < 1 {
		t.Errorf("peak RSS %v MiB", rss)
	}
}

func shrunkBench(t *testing.T, name string) *bench {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(w.shrunk(), 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The decorator must forward every call exactly once and leave the
// simulated schedule untouched.
func TestDecoratorForwardsOneToOne(t *testing.T) {
	for _, name := range []string{"sim-randdag-1e5-multiprio", "sim-cholesky80-mem-dmdas", "thr-randdag-2e5-noop"} {
		b := shrunkBench(t, name)
		plain, err := b.job(jobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		var dec *timedSched
		traced, err := b.job(jobSpec{wrap: func(s Scheduler) Scheduler {
			dec = &timedSched{inner: s, serial: b.w.engine == "sim"}
			return dec
		}})
		if err != nil {
			t.Fatal(err)
		}
		st, tasks := dec.times(0), int64(b.w.tasks())
		if st.pushCalls != tasks || st.popCalls-st.popNil != tasks || st.doneCalls != tasks {
			t.Errorf("%s: %d pushes, %d non-nil pops, %d task-dones, want %d each", name, st.pushCalls, st.popCalls-st.popNil, st.doneCalls, tasks)
		}
		if st.total() <= 0 {
			t.Errorf("%s: decorator timed nothing: %+v", name, st)
		}
		if b.w.engine != "sim" {
			continue
		}
		if traced.facts != plain.facts {
			t.Errorf("%s: decorated run %+v, plain run %+v", name, traced.facts, plain.facts)
		}
		a, _, err := canonicalSHA(plain.res)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := canonicalSHA(traced.res)
		if err != nil {
			t.Fatal(err)
		}
		if a != c {
			t.Errorf("%s: canonical trace differs under the decorator", name)
		}
	}
}

func TestSamplingShare(t *testing.T) {
	var o opStat
	const calls = 1 << 18
	for i := 0; i < calls; i++ {
		if t0, sampled := o.begin(i%2 == 0); sampled {
			o.end(t0, i%2 == 0)
		}
	}
	got := float64(o.sampled) / calls
	if want := 1.0 / (1 << sampleShift); math.Abs(got-want) > want/10 {
		t.Errorf("sampled share %v, want about %v", got, want)
	}
}

func TestLayeredShapeDeterministicPerSeed(t *testing.T) {
	a := newLayeredShape(30, randdagWidth, 2, 5)
	b := newLayeredShape(30, randdagWidth, 2, 5)
	c := newLayeredShape(30, randdagWidth, 2, 6)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different shapes")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same shape")
	}
	// The shape goes through the graph API to the same DAG each time.
	none := func() {}
	if e1, e2 := graphEdges(submitShape(a, none, none)), graphEdges(submitShape(b, none, none)); e1 != e2 || e1 == 0 {
		t.Errorf("edges %d and %d", e1, e2)
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder("w")
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	job := r.add("job", 0, -1, at(0), at(100))
	r.add("apps.build", 0, job, at(0), at(30))
	r.add("engine.run", 0, job, at(30), at(90))
	self := r.selfSeconds()
	for name, want := range map[string]float64{"job": 0.010, "apps.build": 0.030, "engine.run": 0.060} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
}

// Every workload, at a hundredth of its size, through the code path of
// a real run: set-up, timed jobs, check run, traced jobs, span file.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		c := config{w: w.shrunk(), seed: 3, seconds: 0.05, units: 2, outDir: t.TempDir(), log: io.Discard}
		plain, err := runPlain(c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !plain.Correct || plain.Failed != 0 || plain.Attempted < minReps+1 {
			t.Errorf("%s: plain run %+v", w.name, plain)
		}
		for _, d := range endToEnd {
			if v := plain.Metrics[d.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, v)
			}
		}

		traced, err := tracedJobs(c, newRecorder(w.name))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if traced.Failed != 0 {
			t.Errorf("%s: traced run %+v", w.name, traced)
		}
		alive := "sim.run_s"
		if w.engine == "threaded" {
			alive = "threaded.run_s"
		}
		for _, name := range []string{"apps.build_s", "sched.push_calls", "oracle.check_s", "trace.spans", alive} {
			if v := traced.Metrics[name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
			}
		}
	}
}

func TestTracedRunWritesSpansAndEveryLayer(t *testing.T) {
	w, _ := workloadByName(standaloneHost)
	c := config{w: w.shrunk(), seed: 3, seconds: 0.05, units: 2, layerDiv: 10, outDir: t.TempDir(), log: io.Discard}
	rep, err := runTraced(c)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("traced run: %+v", rep)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(perLayer))
	}
	for _, name := range []string{"sched.multiprio.push_ns", "sched.eager.pop_ns", "heap.ops_ns", "heap.topn_ns", "perfmodel.delta_ns",
		"graph.submit_ns_per_task", "graph.edges", "heft.plan_ns_per_task", "sim.mem.fetch_gb", "sim.makespan_s"} {
		if v := rep.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	var file struct {
		Spans  []span   `json:"spans"`
		Folded []folded `json:"folded"`
	}
	b, err := os.ReadFile(c.outDir + "/trace-" + w.name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range file.Spans {
		names[s.Name] = true
		if s.EndNs < s.StartNs || (s.Parent >= 0 && file.Spans[s.Parent].Name != "job") {
			t.Errorf("bad span %+v", s)
		}
	}
	for _, want := range []string{"job", "apps.build", "engine.run", "trace.canonical", "oracle.check"} {
		if !names[want] {
			t.Errorf("no %q span in the file", want)
		}
	}
	if len(file.Folded) == 0 {
		t.Error("no folded scheduler operations in the file")
	}
}

// BENCHMARK.json is written by hand; the program's tables are what
// actually runs. Keep them the same.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	if err := checkDeclaration("../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
}
