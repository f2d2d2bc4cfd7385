package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"
)

// bench is one workload bound to its machine: the state set-up leaves
// behind and every job reuses.
type bench struct {
	w    workload
	m    *Machine
	seed int64
}

// newBench builds the platform and resolves the policy name once, so a
// misconfigured workload fails in set-up and not in the first job.
func newBench(w workload, seed int64, units int) (*bench, error) {
	m, err := machineByName(w.machine, units)
	if err != nil {
		return nil, err
	}
	if _, err := newPolicy(w.policy); err != nil {
		return nil, err
	}
	return &bench{w: w, m: m, seed: seed}, nil
}

// jobOut is one finished job: generator call to returned Result.
type jobOut struct {
	g      *Graph
	res    *Result
	facts  resultFacts
	verify func(tol float64) error // numeric verifier, cholesky-kernels only
	// start..built is the generator call; built..end is policy and
	// engine construction plus Run.
	start, built, end time.Time
	// mem is the allocation work of the whole job; buildMem of the
	// generator call alone (only when the job was asked to split).
	mem, buildMem memDelta
}

func (j *jobOut) wall() float64  { return j.end.Sub(j.start).Seconds() }
func (j *jobOut) build() float64 { return j.built.Sub(j.start).Seconds() }
func (j *jobOut) run() float64   { return j.end.Sub(j.built).Seconds() }

// jobSpec varies a job for the check run and the traced run; the zero
// value is the plain timed job.
type jobSpec struct {
	wrap     func(Scheduler) Scheduler // decorate the fresh policy
	opts     []EngineOpt
	splitMem bool // read MemStats between build and run too
}

// job runs the workload once. MemStats are read outside the timed
// interval, except for the split read, which only traced jobs ask for.
func (b *bench) job(spec jobSpec) (*jobOut, error) {
	w := b.w
	out := &jobOut{}
	m0 := readMem()
	out.start = time.Now()
	switch w.app {
	case "randdag":
		out.g = buildRanddag(b.m, w.layers, randdagWidth, b.seed)
	case "cholesky":
		out.g = buildCholesky(b.m, w.tiles, w.tileSize)
	case "cholesky-kernels":
		out.g, out.verify = buildCholeskyKernels(b.m, w.tiles, w.tileSize, b.seed)
	default:
		return nil, fmt.Errorf("workload %s: unknown app %q", w.name, w.app)
	}
	out.built = time.Now()
	if spec.splitMem {
		out.buildMem = readMem().since(m0)
		// The split read sits between the two halves: move the start
		// forward by what it took, so build + run still add up to wall.
		after := time.Now()
		out.start = out.start.Add(after.Sub(out.built))
		out.built = after
	}
	s, err := newPolicy(w.policy)
	if err != nil {
		return nil, err
	}
	if spec.wrap != nil {
		s = spec.wrap(s)
	}
	var eng Engine
	if w.engine == "sim" {
		eng, err = newSimEngine(b.m, s, spec.opts...)
	} else {
		eng, err = newThreadedEngine(b.m, s, spec.opts...)
	}
	if err != nil {
		return nil, err
	}
	out.res, err = eng.Run(out.g)
	out.end = time.Now()
	if err != nil {
		return nil, fmt.Errorf("workload %s: run: %w", w.name, err)
	}
	out.mem = readMem().since(m0)
	out.facts = factsOf(out.res)
	if n := w.tasks(); len(out.g.Tasks) != n || out.facts.spans != n {
		return nil, fmt.Errorf("workload %s: built %d tasks, ran %d spans, want %d", w.name, len(out.g.Tasks), out.facts.spans, n)
	}
	return out, nil
}

// canonicalSHA hashes the run's canonical trace without materialising
// it, and reports the encoding's length.
func canonicalSHA(res *Result) (sum string, n int64, err error) {
	h := sha256.New()
	cw := &countWriter{w: h}
	if err := writeCanonical(res, cw); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// checkOut is the correctness run of a workload.
type checkOut struct {
	job     *jobOut
	mem     memFacts
	oracleS float64
}

// check runs the workload once with the recording the oracle needs —
// transfer spans, and memory events where the workload replays them —
// validates the trace, and requires the run to match a plain job's
// facts: observation must not change a simulated schedule.
func (b *bench) check(plain resultFacts) (*checkOut, error) {
	spec := jobSpec{}
	if b.w.engine == "sim" {
		spec.opts = append(spec.opts, optTransferSpans())
		if b.w.replay {
			spec.opts = append(spec.opts, optMemEvents())
		}
	}
	j, err := b.job(spec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := oracleCheck(j.g, j.res); err != nil {
		return nil, fmt.Errorf("workload %s: oracle: %w", b.w.name, err)
	}
	out := &checkOut{job: j, mem: memFactsOf(j.res), oracleS: time.Since(t0).Seconds()}
	if j.verify != nil {
		if err := j.verify(verifyTol); err != nil {
			return nil, fmt.Errorf("workload %s: check run: %w", b.w.name, err)
		}
	}
	if b.w.engine == "sim" && (j.facts.makespan != plain.makespan || j.facts.events != plain.events) {
		return nil, fmt.Errorf("workload %s: check run makespan %v events %d, plain run %v / %d",
			b.w.name, j.facts.makespan, j.facts.events, plain.makespan, plain.events)
	}
	return out, nil
}

// verifyTol is the tolerance of the Cholesky L·Lᵀ verifier.
const verifyTol = 1e-8
