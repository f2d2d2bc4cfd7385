// Command benchmark is the repository's performance benchmark: seven
// build-to-Result workloads over the simulator and the threaded engine,
// measured from outside through the packages' public functions.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload and prints, as the last line of standard output, one
// JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Without
// --workload it runs every workload, each in its own process, and prints
// a table; --selfcheck does that twice and compares the two sets.
// README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name      = flag.String("workload", "", "workload to run; empty runs all of them, each in its own process")
		seed      = flag.Int64("seed", 42, "every generator seed derives from this")
		seconds   = flag.Float64("seconds", 10, "how long to run timed jobs")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		phase     = flag.String("phase", "", "internal: \"setup\" does the set-up of -workload and exits")
		outDir    = flag.String("out", "benchmark/out", "directory the traced run writes trace-<workload>.json to")
		decl      = flag.String("decl", "", "path of BENCHMARK.json; when given, refuse to run unless it declares what this program reports")
		selfcheck = flag.Bool("selfcheck", false, "run all workloads twice, the second time in reverse order, and compare")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	units, err := chooseProcs()
	if err != nil {
		return err
	}
	if *selfcheck && *trace != 0 {
		return fmt.Errorf("--selfcheck compares end-to-end metrics: use it with --trace 0")
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, *outDir, *decl, *selfcheck)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	c := config{w: w, seed: *seed, seconds: *seconds, units: units,
		setupSamples: setupSamples, outDir: *outDir, log: os.Stderr}
	if *phase == "setup" {
		return setupProcess(c)
	}
	if *decl != "" {
		if err := checkDeclaration(*decl); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr, newFingerprint(*seed))
	var rep *report
	switch *trace {
	case 0:
		rep, err = runPlain(c)
	case 1:
		rep, err = runTraced(c)
	default:
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return fmt.Errorf("workload %s: %d of %d jobs and checks failed", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// chooseProcs fixes GOMAXPROCS = W = min(nproc, 4), the worker count of
// the threaded workloads' machine: never more goroutines than cores. A
// GOMAXPROCS from the environment may lower W but not exceed nproc.
func chooseProcs() (int, error) {
	nproc := runtime.NumCPU()
	w := min(nproc, 4)
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("GOMAXPROCS=%q is not a positive number", env)
		}
		if n > nproc {
			return 0, fmt.Errorf("GOMAXPROCS=%d exceeds the %d available CPUs: timings would measure oversubscription", n, nproc)
		}
		w = min(w, n)
	}
	runtime.GOMAXPROCS(w)
	return w, nil
}

// runOne runs one workload in a child process and parses its report.
func runOne(name string, seed int64, seconds float64, trace int, outDir, decl string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", outDir, "-decl", decl)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", name, runErr)
		}
		return nil, fmt.Errorf("workload %s: last line of output is not a report: %w", name, err)
	}
	return &rep, nil
}

// runSet runs the workloads in the given order and prints each metric.
func runSet(order []workload, seed int64, seconds float64, trace int, outDir, decl string) (map[string]*report, int, error) {
	set := map[string]*report{}
	failed := 0
	for _, w := range order {
		rep, err := runOne(w.name, seed, seconds, trace, outDir, decl)
		if err != nil {
			return nil, 0, err
		}
		set[w.name] = rep
		failed += rep.Failed
		fmt.Printf("%s  attempted=%d failed=%d failed_frac=%g\n", w.name, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
		names := make([]string, 0, len(rep.Metrics))
		for n := range rep.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-34s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
		}
	}
	return set, failed, nil
}

func runAll(seed int64, seconds float64, trace int, outDir, decl string, selfcheck bool) error {
	fmt.Println(newFingerprint(seed))
	first, failed, err := runSet(workloads, seed, seconds, trace, outDir, decl)
	if err != nil {
		return err
	}
	if selfcheck {
		reversed := make([]workload, len(workloads))
		for i, w := range workloads {
			reversed[len(workloads)-1-i] = w
		}
		fmt.Println("-- second set, reverse order --")
		second, failed2, err := runSet(reversed, seed, seconds, trace, outDir, decl)
		if err != nil {
			return err
		}
		failed += failed2
		fmt.Println("-- self-check: |second - first| / first, per end-to-end metric --")
		for _, w := range workloads {
			for _, d := range endToEnd {
				a, b := first[w.name].Metrics[d.name].Value, second[w.name].Metrics[d.name].Value
				diff := math.Abs(b-a) / a
				verdict := "ok"
				if diff > d.bound {
					verdict = "EXCEEDS BOUND"
					failed++
				}
				fmt.Printf("  %-28s %-22s %10.6g %10.6g  %6.2f%% (bound %g%%) %s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failures", failed)
	}
	return nil
}
