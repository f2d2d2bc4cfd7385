// Command multiprio-bench regenerates the tables and figures of the
// paper's evaluation (see DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	multiprio-bench -exp table2|fig3|fig4|fig5|fig6|fig7|fig8|ablation|hier|energy|stress|faults|static|stragglers|cluster|stream|scale|all
//	                [-scale quick|full] [-gantt] [-j N] [-fallback policy]
//	                [-cpuprofile f.pprof] [-memprofile f.pprof]
//	                [-serve :9090] [-export run.jsonl] [-linger 30s]
//
// The -exp line above is experiments.Studies() joined (a test compares
// them). Studies run their configuration grids on a pool of -j workers;
// tables are byte-identical for every -j value (results are reduced in
// configuration order).
//
// With -serve the process becomes a scrapeable daemon while the
// experiments run: a telemetry probe observes every engine run and a
// stdlib HTTP server exposes /metrics (Prometheus text format),
// /healthz, /readyz, /debug/vars and /debug/pprof on the given address;
// -linger keeps the endpoint up for the given duration after the last
// experiment so scrapers can collect the final state. With -export the
// probe additionally captures decision events and writes a
// schema-versioned JSONL run export to the given path on exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"multiprio/internal/experiments"
	"multiprio/internal/telemetry"
)

var (
	exp        = flag.String("exp", "all", "experiment to run: "+studyNames(experiments.Studies(), ", "))
	scaleFlag  = flag.String("scale", "quick", "problem sizing: quick (seconds) or full (paper-scale, minutes)")
	gantt      = flag.Bool("gantt", false, "include ASCII Gantt traces where applicable (fig4)")
	quick      = flag.Bool("quick", false, "shorthand for -scale quick (CI smoke runs)")
	jobs       = flag.Int("j", runtime.NumCPU(), "sweep worker-pool size (1 = serial; output is identical either way)")
	fallback   = flag.String("fallback", "multiprio", "dynamic fallback policy for -exp static (hybrid repair target and the study's dynamic row)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	serveAddr  = flag.String("serve", "", "serve telemetry (/metrics, /healthz, /readyz, /debug/*) on this address while experiments run")
	exportPath = flag.String("export", "", "write a JSONL telemetry run export to this file at exit (enables decision capture)")
	linger     = flag.Duration("linger", 0, "keep the -serve endpoint up this long after the last experiment")
)

func main() {
	flag.Parse()

	if *quick {
		*scaleFlag = "quick"
	}
	ctx := &experiments.Ctx{Workers: *jobs, Progress: os.Stderr, Gantt: *gantt, Fallback: *fallback}
	switch *scaleFlag {
	case "quick":
		ctx.Scale = experiments.Quick
	case "full":
		ctx.Scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "multiprio-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "multiprio-bench: %v\n", err)
			os.Exit(1)
		}
	}

	// Telemetry wiring: one probe observes every engine run the
	// experiment drivers execute; the server (if any) outlives the runs
	// by -linger so the final state is scrapeable.
	var probe *telemetry.Probe
	var server *telemetry.Server
	if *serveAddr != "" || *exportPath != "" {
		var popts []telemetry.ProbeOption
		if *exportPath != "" {
			popts = append(popts, telemetry.WithDecisionCapture(1<<21))
		}
		probe = telemetry.NewProbe(popts...)
		ctx.Observer = probe
		if *serveAddr != "" {
			var serr error
			server, serr = telemetry.Serve(*serveAddr, probe)
			if serr != nil {
				fmt.Fprintf(os.Stderr, "multiprio-bench: %v\n", serr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "multiprio-bench: telemetry on http://%s/metrics\n", server.Addr())
		}
	}

	err := run(experiments.Studies(), *exp, ctx, os.Stdout)

	if server != nil {
		if *linger > 0 {
			fmt.Fprintf(os.Stderr, "multiprio-bench: lingering %s on http://%s\n", *linger, server.Addr())
			time.Sleep(*linger)
		}
		if cerr := server.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "multiprio-bench: telemetry shutdown: %v\n", cerr)
		}
	}
	if probe != nil && *exportPath != "" {
		f, ferr := os.Create(*exportPath)
		if ferr == nil {
			ferr = telemetry.ExportJSONL(f, probe)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "multiprio-bench: export: %v\n", ferr)
			os.Exit(1)
		}
	}

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr != nil {
			fmt.Fprintf(os.Stderr, "multiprio-bench: %v\n", merr)
			os.Exit(1)
		}
		runtime.GC() // materialize the final live set
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintf(os.Stderr, "multiprio-bench: %v\n", merr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		fmt.Fprintf(os.Stderr, "multiprio-bench: %v\n", err)
		os.Exit(1)
	}
}

// studyNames joins the names of the table with sep, "all" last.
func studyNames(studies []experiments.Study, sep string) string {
	names := make([]string, 0, len(studies)+1)
	for _, s := range studies {
		names = append(names, s.Name)
	}
	return strings.Join(append(names, "all"), sep)
}

// run executes the study named exp, or every study in table order for
// "all", stopping at the first that fails (the error carries its name).
func run(studies []experiments.Study, exp string, ctx *experiments.Ctx, out io.Writer) error {
	all, found := exp == "all", false
	for _, s := range studies {
		if !all && s.Name != exp {
			continue
		}
		found = true
		if all {
			fmt.Fprintf(out, "\n========== %s ==========\n", s.Name)
		}
		r, err := s.Run(ctx)
		if err != nil {
			return err
		}
		r.Print(out)
	}
	if !found {
		return fmt.Errorf("unknown experiment %q (valid: %s)", exp, studyNames(studies, ", "))
	}
	return nil
}
