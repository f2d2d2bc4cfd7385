// Command multiprio-trace runs one workload/scheduler configuration in
// the simulator and dumps the execution summary, per-resource idle
// shares, transfer volumes, an ASCII Gantt chart and the practical
// critical path — the same diagnostics the paper reads off StarVZ
// traces.
//
// Usage:
//
//	multiprio-trace -app cholesky|lu|qr|hier|fmm|sparseqr -sched multiprio
//	                [-platform intel-v100] [-tiles 24] [-tile 960]
//	                [-particles 200000] [-height 5] [-matrix e18]
//	                [-streams 1] [-gantt] [-width 120]
//	                [-chrome trace.json] [-counters-in-chrome]
//	                [-decisions decisions.log] [-metrics metrics.csv]
//	                [-metrics-json metrics.json]
//
// Observability (see DESIGN.md, "Observability"):
//
//	-decisions FILE   canonical scheduler decision log (push/score/pop/
//	                  evict/map events with gain scores, LS_SDH² and
//	                  evict-retry counts), deterministic and diffable
//	                  across runs.
//	-metrics FILE     simulated-time counter tracks (ready counts, mem
//	                  usage, prefetch hits, transfer queue depth) as CSV.
//	-metrics-json FILE same, as JSON.
//	-counters-in-chrome merge the counter tracks into the -chrome output
//	                  as Perfetto counter tracks ("C" events).
//
// When -chrome is set, a decision log is collected regardless of
// -decisions so task tooltips carry scheduler context (gain score,
// memory node, evict retries).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/fmm"
	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/core"
	"multiprio/internal/experiments"
	"multiprio/internal/obs"
	"multiprio/internal/perfmodel"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"
	"multiprio/internal/trace"
)

// config collects every flag of the run.
type config struct {
	app, sched, platform    string
	tiles, tile             int
	prios                   bool
	particles, height       int
	clustered               bool
	matrix                  string
	streams                 int
	gantt                   bool
	width, locN             int
	eps                     float64
	hist                    bool
	chromeOut, csvOut       string
	dotOut                  string
	decisionsOut            string
	metricsOut, metricsJSON string
	countersInChrome        bool
}

func main() {
	var c config
	flag.StringVar(&c.app, "app", "cholesky", "workload: cholesky, lu, qr, hier, fmm, sparseqr")
	flag.StringVar(&c.sched, "sched", "multiprio", "scheduler: multiprio (+ -noevict/-nocrit/-nolocal/-flatgain), dmdas, dmdar, dmda, dm, heteroprio, lws, prio, eager")
	flag.StringVar(&c.platform, "platform", "intel-v100", "platform: intel-v100, amd-a100, smallsim")
	flag.IntVar(&c.tiles, "tiles", 24, "dense: tile count per dimension")
	flag.IntVar(&c.tile, "tile", 960, "dense: tile size")
	flag.BoolVar(&c.prios, "prios", true, "dense: expert (bottom-level) user priorities for dmdas")
	flag.IntVar(&c.particles, "particles", 200000, "fmm: particle count")
	flag.IntVar(&c.height, "height", 5, "fmm: octree height, 3 to 22")
	flag.BoolVar(&c.clustered, "clustered", false, "fmm: clustered particle distribution")
	flag.StringVar(&c.matrix, "matrix", "e18", "sparseqr: matrix name from the Fig. 7 set")
	flag.IntVar(&c.streams, "streams", 1, "GPU streams per device")
	flag.BoolVar(&c.gantt, "gantt", false, "print the ASCII Gantt chart")
	flag.IntVar(&c.width, "width", 120, "Gantt width in columns")
	flag.IntVar(&c.locN, "n", 0, "multiprio: override locality window n")
	flag.Float64Var(&c.eps, "eps", 0, "multiprio: override epsilon")
	flag.BoolVar(&c.hist, "hist", false, "history-based performance model (StarPU-style footprint buckets) instead of oracle")
	flag.StringVar(&c.chromeOut, "chrome", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
	flag.StringVar(&c.csvOut, "csv", "", "write the task spans as CSV to this file")
	flag.StringVar(&c.dotOut, "dot", "", "write the task DAG in Graphviz DOT format to this file (truncated to 2000 tasks)")
	flag.StringVar(&c.decisionsOut, "decisions", "", "write the canonical scheduler decision log to this file")
	flag.StringVar(&c.metricsOut, "metrics", "", "write the simulated-time counter tracks as CSV to this file")
	flag.StringVar(&c.metricsJSON, "metrics-json", "", "write the simulated-time counter tracks as JSON to this file")
	flag.BoolVar(&c.countersInChrome, "counters-in-chrome", false, "merge counter tracks into the -chrome output as Perfetto counter tracks")
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintf(os.Stderr, "multiprio-trace: %v\n", err)
		os.Exit(1)
	}
}

// writeTo creates path and hands the file to emit, reporting what was
// written on success.
func writeTo(path, what string, emit func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  wrote %s to %s\n", what, path)
	return nil
}

func run(c config) error {
	m, err := experiments.PlatformByName(c.platform, c.streams)
	if err != nil {
		return err
	}
	var g *runtime.Graph
	switch c.app {
	case "cholesky":
		g = dense.Cholesky(dense.Params{Tiles: c.tiles, TileSize: c.tile, Machine: m, UserPriorities: c.prios})
	case "lu":
		g = dense.LU(dense.Params{Tiles: c.tiles, TileSize: c.tile, Machine: m, UserPriorities: c.prios})
	case "qr":
		g = dense.QR(dense.Params{Tiles: c.tiles, TileSize: c.tile, Machine: m, UserPriorities: c.prios})
	case "hier":
		g = dense.HierarchicalCholesky(dense.HierParams{
			Blocks: c.tiles, SubTiles: 5, TileSize: c.tile, Machine: m, UserPriorities: c.prios,
		})
	case "fmm":
		// The octree's Morton codes keep 21 bits per axis, and the
		// group tree's operators need three levels.
		if c.height < 3 || c.height > 22 {
			return fmt.Errorf("-height %d outside [3, 22]", c.height)
		}
		g = fmm.Build(fmm.Params{Particles: c.particles, Height: c.height, Clustered: c.clustered, Machine: m, Seed: 12})
	case "sparseqr":
		stats, ok := sparseqr.ByName(c.matrix)
		if !ok {
			return fmt.Errorf("unknown matrix %q", c.matrix)
		}
		g = sparseqr.Build(stats, sparseqr.Params{Machine: m})
	default:
		return fmt.Errorf("unknown app %q", c.app)
	}

	// The registry resolves the policy by name; -n/-eps are generic
	// knobs (registry.Options) that policies without a matching config
	// field simply ignore.
	s, err := registry.New(c.sched, registry.Options{LocalityWindow: c.locN, Epsilon: c.eps})
	if err != nil {
		return err
	}
	var opts []runtime.Option
	if c.hist {
		h := perfmodel.NewHistory()
		opts = append(opts, runtime.WithHistory(h), runtime.WithEstimator(h))
	}
	// A decision log feeds both -decisions and the Chrome span args; a
	// metrics recorder feeds -metrics/-metrics-json and the Chrome
	// counter tracks. Only attach what some output consumes — with no
	// observability flags the run stays on the probe-free fast path.
	var dl *obs.DecisionLog
	var mx *obs.Metrics
	if c.decisionsOut != "" || c.chromeOut != "" {
		dl = &obs.DecisionLog{}
	}
	if c.metricsOut != "" || c.metricsJSON != "" || (c.countersInChrome && c.chromeOut != "") {
		mx = obs.NewMetrics()
	}
	switch {
	case dl != nil && mx != nil:
		opts = append(opts, runtime.WithProbe(obs.Multi{dl, mx}))
	case dl != nil:
		opts = append(opts, runtime.WithProbe(dl))
	case mx != nil:
		opts = append(opts, runtime.WithProbe(mx))
	}
	res, err := sim.Run(m, g, s, opts...)
	if err != nil {
		return err
	}
	if mp, ok := s.(*core.Sched); ok {
		defer fmt.Printf("  multiprio evictions: %d\n", mp.Evictions)
	}

	fmt.Printf("%s on %s under %s: %d tasks, %.1f Gflop\n",
		c.app, m, s.Name(), len(g.Tasks), g.TotalFlops()/1e9)
	fmt.Print(res.Trace.Summary())
	fmt.Printf("  achieved %.0f GFlop/s; critical path bound %.4fs; serial best %.4fs\n",
		g.TotalFlops()/res.Makespan/1e9, g.CriticalPathTime(), g.SerialTime())
	var waitTotal float64
	for _, sp := range res.Trace.Spans {
		waitTotal += sp.Wait
	}
	fmt.Printf("  total transfer-wait inside spans: %.4fs\n", waitTotal)
	type key struct {
		kind string
		arch string
	}
	cnt := map[key]int{}
	tim := map[key]float64{}
	for _, sp := range res.Trace.Spans {
		k := key{sp.Kind, m.ArchName(m.Units[sp.Worker].Arch)}
		cnt[k]++
		tim[k] += sp.End - sp.Start - sp.Wait
	}
	keys := make([]key, 0, len(cnt))
	for k := range cnt {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].arch < keys[j].arch
	})
	for _, k := range keys {
		fmt.Printf("  %-10s %-4s %6d tasks %9.4fs\n", k.kind, k.arch, cnt[k], tim[k])
	}
	for mem, ov := range res.OverflowBytes {
		if ov > 0 {
			fmt.Printf("  memory overflow on node %d: %d bytes\n", mem, ov)
		}
	}
	cp := runtime.PracticalCriticalPath(g, res.Tasks)
	fmt.Printf("  practical critical path: %d tasks:", len(cp))
	for i, t := range cp {
		if i >= 12 {
			fmt.Printf(" ... (+%d more)", len(cp)-i)
			break
		}
		fmt.Printf(" %s", t.Kind())
	}
	fmt.Println()
	if dl != nil {
		fmt.Printf("  decision log: %d events (%d push, %d pop, %d evict, %d map)\n",
			dl.Len(), dl.CountKind(obs.PushBest), dl.CountKind(obs.PopSelect),
			dl.CountKind(obs.PopEvict), dl.CountKind(obs.MapTask))
	}
	if c.gantt {
		fmt.Println(res.Trace.Gantt(c.width))
	}
	if c.chromeOut != "" {
		co := trace.ChromeOptions{}
		if dl != nil {
			args := dl.SpanArgs(func(mem int) string { return m.Mems[mem].Name })
			co.SpanArgs = func(taskID int64) map[string]string { return args[taskID] }
		}
		if c.countersInChrome && mx != nil {
			co.Counters = mx.Tracks()
		}
		if err := writeTo(c.chromeOut, "Chrome trace", func(f *os.File) error {
			return res.Trace.WriteChromeTraceWith(f, co)
		}); err != nil {
			return err
		}
	}
	if c.dotOut != "" {
		if err := writeTo(c.dotOut, "DAG", func(f *os.File) error {
			return g.WriteDOT(f, res.Tasks, 2000)
		}); err != nil {
			return err
		}
	}
	if c.csvOut != "" {
		if err := writeTo(c.csvOut, "CSV spans", func(f *os.File) error {
			return res.Trace.WriteCSV(f)
		}); err != nil {
			return err
		}
	}
	if c.decisionsOut != "" {
		if err := writeTo(c.decisionsOut, "decision log", func(f *os.File) error {
			return dl.WriteCanonical(f)
		}); err != nil {
			return err
		}
	}
	if c.metricsOut != "" {
		if err := writeTo(c.metricsOut, "metrics CSV", func(f *os.File) error {
			return mx.WriteCSV(f)
		}); err != nil {
			return err
		}
	}
	if c.metricsJSON != "" {
		if err := writeTo(c.metricsJSON, "metrics JSON", func(f *os.File) error {
			return mx.WriteJSON(f)
		}); err != nil {
			return err
		}
	}
	return nil
}
