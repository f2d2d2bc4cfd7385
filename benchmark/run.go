package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	goruntime "runtime"
	"time"
)

const (
	// setupSamples is how many fresh processes time the set-up; the
	// reported setup_s is their median.
	setupSamples = 3
	// warmups is the number of untimed jobs before the timed ones: lazy
	// initialisation and the first mapping of the heap's address space
	// land here, not in the first samples. (The heap goal does not carry
	// over: every timed job starts from a collected heap.)
	warmups = 2
	// minReps keeps a median meaningful when --seconds is tiny.
	minReps = 3
)

// config is one invocation's arguments.
type config struct {
	w       workload
	seed    int64
	seconds float64
	units   int // GOMAXPROCS = workers of the threaded machine
	// setupSamples is how many fresh processes time the set-up. With 0
	// (harness tests, which cannot re-exec the benchmark) the one sample
	// is this process's own set-up.
	setupSamples int
	// layerDiv divides the stand-alone layers' input sizes; only the
	// harness tests, which run shrunk workloads, set it.
	layerDiv int
	outDir   string
	log      io.Writer
}

// setUp is what a process does before its first timed job: platform,
// policy registry, and one cold job.
func setUp(c config) (*bench, *jobOut, error) {
	b, err := newBench(c.w, c.seed, c.units)
	if err != nil {
		return nil, nil, err
	}
	j, err := b.job(jobSpec{})
	return b, j, err
}

// setupProbe is what a set-up process reports about itself as it exits.
type setupProbe struct {
	RefS   float64 `json:"ref_s"`   // the reference load, right after set-up
	ProbeS float64 `json:"probe_s"` // time spent on this probe, which is not set-up
	RSSMiB float64 `json:"rss_mib"` // VmHWM: one cold job's peak resident set
}

// probeSetup measures the host's speed and the process's peak RSS right
// after a set-up that took setupS seconds. Peak RSS is read first: the
// probe's own collection and reference loads must not count.
func probeSetup(setupS float64) (setupProbe, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return setupProbe{}, err
	}
	t0 := time.Now()
	goruntime.GC()
	ref := refSample(setupS)
	return setupProbe{RefS: ref, ProbeS: time.Since(t0).Seconds(), RSSMiB: rss}, nil
}

// setupSample is one timed set-up.
type setupSample struct {
	wallS float64 // spawn to exit, less the probe
	setupProbe
}

// sampleSetup times set-up the way a user meets it: a fresh process,
// from spawn to exit, that does setUp, probes itself, and exits.
func sampleSetup(c config) (setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupSample{}, err
	}
	cmd := exec.Command(exe, "-phase", "setup", "-workload", c.w.name, "-seed", fmt.Sprint(c.seed))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return setupSample{}, fmt.Errorf("set-up process: %w", err)
	}
	var p setupProbe
	if err := json.Unmarshal(out, &p); err != nil {
		return setupSample{}, fmt.Errorf("set-up process printed %q: %w", out, err)
	}
	return setupSample{wallS: wall - p.ProbeS, setupProbe: p}, nil
}

// runPlain is a --trace 0 run: set-up samples, warm-up, timed jobs for
// c.seconds, then the check run. Tracing is off throughout.
func runPlain(c config) (*report, error) {
	w, tasks := c.w, float64(c.w.tasks())
	sim := w.engine == "sim"
	rep := newReport(endToEnd)
	fail := func(err error) {
		rep.Failed++
		fmt.Fprintln(c.log, "FAIL:", err)
	}

	var setups []setupSample
	for i := 0; i < c.setupSamples; i++ {
		s, err := sampleSetup(c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	own := time.Now()
	b, j, err := setUp(c)
	if err != nil {
		return nil, err
	}
	if len(setups) == 0 {
		wall := time.Since(own).Seconds()
		p, err := probeSetup(wall)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupSample{wallS: wall, setupProbe: p})
	}
	for i := 1; i < warmups; i++ {
		if j, err = b.job(jobSpec{}); err != nil {
			return nil, err
		}
	}
	// The last warm-up job is the reference of the timed ones: a
	// simulated schedule must repeat exactly, a factorisation must verify.
	plain := j.facts
	sha0, err := checkedSHA(j, -1, sim, fail)
	if err != nil {
		return nil, err
	}
	j = nil
	goruntime.GC()

	// Timed jobs. Each starts from a collected heap: the collection after
	// a job is what lets the reference load beside it see the host and
	// not that job's garbage, and it makes the jobs independent samples.
	// It is outside the timed interval; README.md has what that leaves
	// uncharged, and the measurement that a job timed this way costs what
	// a job in an undisturbed sequence costs.
	var walls, refs, corrected, mallocs, bytes []float64
	var shaN string
	var liveMiB float64
	for t0, done := time.Now(), false; !done; {
		rep.Attempted++
		j, err := b.job(jobSpec{})
		if err != nil {
			return nil, err
		}
		wall := j.wall()
		walls = append(walls, wall)
		mallocs = append(mallocs, j.mem.mallocs)
		bytes = append(bytes, j.mem.bytes)
		if sim && j.facts != plain {
			fail(fmt.Errorf("rep %d: %+v, warm-up run %+v", len(walls)-1, j.facts, plain))
		}
		if done = len(walls) >= minReps && time.Since(t0).Seconds() >= c.seconds; done {
			if shaN, err = checkedSHA(j, len(walls)-1, sim, fail); err != nil {
				return nil, err
			}
			// What a built graph and its Result keep alive: the collector
			// runs with the last job still referenced.
			goruntime.GC()
			liveMiB = float64(readMem().heapAlloc) / (1 << 20)
			goruntime.KeepAlive(j)
		}
		j = nil
		goruntime.GC()
		ref := refSample(wall)
		refs = append(refs, ref)
		corrected = append(corrected, hostCorrected(wall, ref))
	}
	if sha0 != shaN {
		fail(fmt.Errorf("canonical trace of the last rep %s differs from the warm-up run's %s", shaN, sha0))
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	rep.Attempted++
	if _, err := b.check(plain); err != nil {
		fail(err)
	}

	var setupS, setupRaw, setupRSS []float64
	for _, s := range setups {
		setupS = append(setupS, hostCorrected(s.wallS, s.RefS))
		setupRaw = append(setupRaw, s.wallS)
		setupRSS = append(setupRSS, s.RSSMiB)
	}
	wall := median(corrected)
	rep.set("setup_s", median(setupS))
	rep.set("e2e_wall_s", wall)
	rep.set("tasks_per_s", tasks/wall)
	rep.set("allocs_per_task", median(mallocs)/tasks)
	rep.set("alloc_bytes_per_task", median(bytes)/tasks)
	rep.set("peak_rss_mb", median(setupRSS))
	rep.set("live_heap_mb", liveMiB)
	rep.Correct = rep.Failed == 0

	q1, raw, q3 := quartiles(walls)
	fmt.Fprintf(c.log, "%s: %d reps; uncorrected job wall q1 %.4f median %.4f q3 %.4f s, set-up %.3f s, this process peaked at %.0f MiB; host speed: reference load %.4f s against nominal %.4f\n",
		w.name, len(walls), q1, raw, q3, setupRaw, rss, median(refs), refNominalS)
	if sim {
		fmt.Fprintf(c.log, "%s: facts sha256=%s events=%d makespan=%v\n", w.name, sha0, plain.events, plain.makespan)
	}
	return rep, nil
}

// checkedSHA is the between-jobs check of one finished job: the numeric
// verifier where the workload has one, and on a simulator workload the
// canonical trace's SHA-256, for the caller to compare.
func checkedSHA(j *jobOut, rep int, sim bool, fail func(error)) (string, error) {
	if j.verify != nil {
		if err := j.verify(verifyTol); err != nil {
			fail(fmt.Errorf("rep %d: %w", rep, err))
		}
	}
	if !sim {
		return "", nil
	}
	sum, _, err := canonicalSHA(j.res)
	return sum, err
}

// runTraced is a --trace 1 run: the traced jobs of the workload and, on
// standaloneHost, the stand-alone layers; the spans go to
// outDir/trace-<workload>.json.
func runTraced(c config) (*report, error) {
	rec := newRecorder(c.w.name)
	rep, err := tracedJobs(c, rec)
	if err != nil {
		return nil, err
	}
	if c.w.name == standaloneHost {
		if err := standaloneLayers(c.seed, max(c.layerDiv, 1), rep); err != nil {
			rep.Failed++
			fmt.Fprintln(c.log, "FAIL:", err)
		}
	}
	path := c.outDir + "/trace-" + c.w.name + ".json"
	if err := rec.write(path); err != nil {
		return nil, err
	}
	self := rec.selfSeconds()
	fmt.Fprintf(c.log, "%s: span self time: job %.3fs apps.build %.3fs engine.run %.3fs trace.canonical %.3fs oracle.check %.3fs; spans in %s\n",
		c.w.name, self["job"], self["apps.build"], self["engine.run"], self["trace.canonical"], self["oracle.check"], path)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// tracedRep is what one cycle of the traced loop measured.
type tracedRep struct {
	plainWall, plainRun, plainBusy, gcCycles, gcPauseMs float64 // the plain job
	gcAfterMs, ref                                      float64 // the collection after it, the reference load after that
	wall, build, run                                    float64 // the decorated job
	buildMem, runMem                                    memDelta
	sched                                               schedTimes
	canonS, memevRun                                    float64 // sim only
	observedRun                                         float64 // workloads with an observer only
}

// med is the median over reps of one measured quantity.
func med(reps []tracedRep, f func(tracedRep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// tracedJobs alternates plain and decorated jobs for c.seconds, so the
// tracing overhead is measured against plain jobs of the same process,
// and then does the check run. As in a plain run every job starts from
// a collected heap, so that what ran before it — a plain job, or a run
// that recorded a million memory events — does not decide how often
// the collector interrupts it. Spans are recorded from here, around
// the calls into each layer.
func tracedJobs(c config, rec *recorder) (*report, error) {
	w, tasks := c.w, float64(c.w.tasks())
	sim := w.engine == "sim"
	rep := newReport(perLayer)
	timerNs := timerCostNs()
	fail := func(err error) {
		rep.Failed++
		fmt.Fprintln(c.log, "FAIL:", err)
	}

	b, j, err := setUp(c)
	if err != nil {
		return nil, err
	}
	plain := j.facts
	var plainSHA string
	if sim {
		if plainSHA, _, err = canonicalSHA(j.res); err != nil {
			return nil, err
		}
	}
	j = nil

	var canonBytes int64
	plainJob := func(n int, r *tracedRep) error {
		goruntime.GC()
		j, err := b.job(jobSpec{})
		if err != nil {
			return err
		}
		r.plainWall, r.plainRun, r.plainBusy = j.wall(), j.run(), j.facts.busy
		r.gcCycles, r.gcPauseMs = j.mem.gcCycles, j.mem.gcPauseMs
		j = nil
		g0 := time.Now()
		goruntime.GC()
		r.gcAfterMs = float64(time.Since(g0).Microseconds()) / 1e3
		r.ref = refSample(r.plainWall)
		return nil
	}
	tracedJob := func(n int, r *tracedRep) error {
		var dec *timedSched
		goruntime.GC()
		j, err := b.job(jobSpec{splitMem: true, wrap: func(s Scheduler) Scheduler {
			dec = &timedSched{inner: s, serial: sim}
			return dec
		}})
		if err != nil {
			return err
		}
		r.sched = dec.times(timerNs)
		r.wall, r.build, r.run = j.wall(), j.build(), j.run()
		r.buildMem = j.buildMem
		r.runMem = memDelta{mallocs: j.mem.mallocs - j.buildMem.mallocs, bytes: j.mem.bytes - j.buildMem.bytes}
		jobID := rec.add("job", n, -1, j.start, j.end)
		rec.add("apps.build", n, jobID, j.start, j.built)
		rec.add("engine.run", n, jobID, j.built, j.end)
		rec.fold(n, r.sched)

		// The decorator must be invisible: every call forwarded once,
		// and a simulated schedule identical to the untraced one.
		if st := r.sched; st.pushCalls != int64(tasks) || st.popCalls-st.popNil != int64(tasks) {
			fail(fmt.Errorf("traced rep %d: %d pushes, %d non-nil pops, want %d each", n, st.pushCalls, st.popCalls-st.popNil, int64(tasks)))
		}
		if !sim {
			return nil
		}
		c0 := time.Now()
		sum, nbytes, err := canonicalSHA(j.res)
		if err != nil {
			return err
		}
		c1 := time.Now()
		rec.Spans[jobID].EndNs = c1.Sub(rec.t0).Nanoseconds()
		rec.add("trace.canonical", n, jobID, c0, c1)
		r.canonS, canonBytes = c1.Sub(c0).Seconds(), nbytes
		if j.facts != plain || sum != plainSHA {
			fail(fmt.Errorf("traced rep %d: %+v sha %s, untraced %+v sha %s", n, j.facts, sum, plain, plainSHA))
		}
		return nil
	}
	memEventsJob := func(n int, r *tracedRep) error {
		goruntime.GC()
		j, err := b.job(jobSpec{opts: []EngineOpt{optMemEvents()}})
		if err != nil {
			return err
		}
		r.memevRun = j.run()
		return nil
	}
	observedJob := func(n int, r *tracedRep) error {
		goruntime.GC()
		j, err := b.job(jobSpec{opts: []EngineOpt{w.observer()}})
		if err != nil {
			return err
		}
		if j.facts != plain {
			fail(fmt.Errorf("observed rep %d: %+v, unobserved %+v", n, j.facts, plain))
		}
		r.observedRun = j.run()
		return nil
	}
	// How fast a job runs depends on what the process did just before
	// it, even from a collected heap: after a job with a larger heap more
	// memory is still mapped and the next job takes fewer page faults (the
	// same job measured 15 % slower in second position than in first).
	// Every other cycle runs in reverse, so that no kind of job always
	// follows the same one.
	cycle := []func(int, *tracedRep) error{plainJob, tracedJob}
	if sim && w.replay {
		cycle = append(cycle, memEventsJob)
	}
	if sim && w.observer != nil {
		cycle = append(cycle, observedJob)
	}
	var reps []tracedRep
	t0 := time.Now()
	for n := 0; n < minReps || time.Since(t0).Seconds() < c.seconds; n++ {
		var r tracedRep
		for i := range cycle {
			if n%2 == 1 {
				i = len(cycle) - 1 - i
			}
			rep.Attempted++
			if err := cycle[i](n, &r); err != nil {
				return nil, err
			}
		}
		reps = append(reps, r)
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	// Check run, as spans: job -> apps.build, engine.run, oracle.check.
	rep.Attempted++
	ck, err := b.check(plain)
	if err != nil {
		fail(err)
		return rep, nil
	}
	oracleEnd := ck.job.end.Add(time.Duration(ck.oracleS * float64(time.Second)))
	ckID := rec.add("job", -1, -1, ck.job.start, oracleEnd)
	rec.add("apps.build", -1, ckID, ck.job.start, ck.job.built)
	rec.add("engine.run", -1, ckID, ck.job.built, ck.job.end)
	rec.add("oracle.check", -1, ckID, ck.job.end, oracleEnd)
	canonS := med(reps, func(r tracedRep) float64 { return r.canonS })
	if !sim {
		// No SHA to compare on a wall-clock trace; encode it once for
		// the layer's cost.
		c0 := time.Now()
		if _, canonBytes, err = canonicalSHA(ck.job.res); err != nil {
			return nil, err
		}
		canonS = time.Since(c0).Seconds()
	}

	e2e := med(reps, func(r tracedRep) float64 { return r.plainWall })
	wall := med(reps, func(r tracedRep) float64 { return r.wall })
	build := med(reps, func(r tracedRep) float64 { return r.build })
	run := med(reps, func(r tracedRep) float64 { return r.run })
	self := med(reps, func(r tracedRep) float64 { return r.run - r.sched.total() })
	schedS := med(reps, func(r tracedRep) float64 { return r.sched.total() })
	runAllocs := med(reps, func(r tracedRep) float64 { return r.runMem.mallocs })
	rep.set("apps.build_s", build)
	rep.set("apps.build_allocs_per_task", med(reps, func(r tracedRep) float64 { return r.buildMem.mallocs })/tasks)
	rep.set("apps.build_bytes_per_task", med(reps, func(r tracedRep) float64 { return r.buildMem.bytes })/tasks)
	rep.set("sched.init_s", med(reps, func(r tracedRep) float64 { return r.sched.initS }))
	rep.set("sched.push_s", med(reps, func(r tracedRep) float64 { return r.sched.pushS }))
	rep.set("sched.pop_s", med(reps, func(r tracedRep) float64 { return r.sched.popS }))
	rep.set("sched.taskdone_s", med(reps, func(r tracedRep) float64 { return r.sched.taskDoneS }))
	rep.set("sched.push_calls", med(reps, func(r tracedRep) float64 { return float64(r.sched.pushCalls) }))
	rep.set("sched.pop_calls", med(reps, func(r tracedRep) float64 { return float64(r.sched.popCalls) }))
	rep.set("sched.pop_nil_calls", med(reps, func(r tracedRep) float64 { return float64(r.sched.popNil) }))
	rep.set("sched.pop_useful_ratio", med(reps, func(r tracedRep) float64 {
		return float64(r.sched.popCalls-r.sched.popNil) / float64(r.sched.popCalls)
	}))
	if sim {
		plainRun := med(reps, func(r tracedRep) float64 { return r.plainRun })
		rep.set("sim.run_s", run)
		rep.set("sim.self_s", self)
		rep.set("sim.events", float64(plain.events))
		rep.set("sim.self_ns_per_event", self*1e9/float64(plain.events))
		rep.set("sim.run_allocs_per_task", runAllocs/tasks)
		rep.set("sim.run_bytes_per_task", med(reps, func(r tracedRep) float64 { return r.runMem.bytes })/tasks)
		rep.set("sim.mem.events", float64(ck.mem.events))
		rep.set("sim.mem.allocs", float64(ck.mem.allocs))
		rep.set("sim.mem.frees", float64(ck.mem.frees))
		rep.set("sim.mem.transfers", float64(ck.mem.transfers))
		rep.set("sim.mem.fetch_gb", float64(ck.mem.fetchB)/1e9)
		rep.set("sim.mem.prefetch_gb", float64(ck.mem.prefetchB)/1e9)
		rep.set("sim.mem.writeback_gb", float64(ck.mem.writebackB)/1e9)
		rep.set("sim.mem.overflow_bytes", float64(ck.mem.overflB))
		if w.replay {
			rep.set("sim.memevents_overhead_frac", med(reps, func(r tracedRep) float64 { return r.memevRun })/plainRun-1)
		}
		if w.observer != nil {
			// The median paired difference: each cycle ran the job with
			// and without the observer.
			rep.set(w.observerMetric, med(reps, func(r tracedRep) float64 { return r.observedRun - r.plainRun })*1e9/tasks)
		}
		rep.set("sim.makespan_s", plain.makespan)
		rep.set("sim.idle_frac", 1-plain.busy/(float64(plain.workers)*plain.makespan))
		rep.set("sim.transfer_gb", float64(ck.mem.fetchB+ck.mem.prefetchB+ck.mem.writebackB)/1e9)
	} else {
		runS := med(reps, func(r tracedRep) float64 { return r.plainRun })
		kernelS := med(reps, func(r tracedRep) float64 { return r.plainBusy })
		workers := float64(plain.workers)
		rep.set("threaded.run_s", runS)
		rep.set("threaded.kernel_s", kernelS)
		rep.set("threaded.sched_s", schedS)
		rep.set("threaded.nonkernel_us_per_task", (workers*runS-kernelS)*1e6/tasks)
		rep.set("threaded.busy_frac", kernelS/(workers*runS))
		rep.set("threaded.run_allocs_per_task", runAllocs/tasks)
	}
	rep.set("trace.canonical_s", canonS)
	rep.set("trace.canonical_bytes", float64(canonBytes))
	rep.set("trace.spans", float64(ck.job.facts.spans))
	rep.set("oracle.check_s", ck.oracleS)
	rep.set("oracle.check_ns_per_task", ck.oracleS*1e9/tasks)
	rep.set("mem.gc_cycles", med(reps, func(r tracedRep) float64 { return r.gcCycles }))
	rep.set("mem.gc_pause_ms", med(reps, func(r tracedRep) float64 { return r.gcPauseMs }))
	rep.set("mem.gc_cpu_frac", readMem().gcCPUFrac)
	rep.set("job.wall_raw_s", e2e)
	rep.set("mem.peak_rss_mb", rss)
	rep.set("mem.gc_after_job_ms", med(reps, func(r tracedRep) float64 { return r.gcAfterMs }))
	rep.set("host.ref_load_s", med(reps, func(r tracedRep) float64 { return r.ref }))
	rep.set("trace_overhead_frac", wall/e2e-1)
	// Per job, build + self + sched is the traced job's wall up to
	// policy and engine construction; the residual says how far the
	// medians reported above are from adding up the same way.
	residual := (wall - (build + self + schedS)) / wall
	rep.set("layers.residual_frac", residual)

	fmt.Fprintf(c.log, "%s: %d traced reps; traced wall %.4f = apps.build_s %.4f + self %.4f + sched %.4f, residual %+.1f%%; plain e2e_wall_s %.4f, trace overhead %+.1f%%\n",
		w.name, len(reps), wall, build, self, schedS, 100*residual, e2e, 100*(wall/e2e-1))
	if sim {
		fmt.Fprintf(c.log, "%s: facts sha256=%s events=%d makespan=%v (traced runs identical)\n", w.name, plainSHA, plain.events, plain.makespan)
	}
	return rep, nil
}

// setupProcess is the body of a `-phase setup` child: set up, probe,
// print the probe.
func setupProcess(c config) error {
	t0 := time.Now()
	if _, _, err := setUp(c); err != nil {
		return err
	}
	p, err := probeSetup(time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	out, err := json.Marshal(p)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}
