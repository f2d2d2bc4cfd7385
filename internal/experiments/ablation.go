package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/fmm"
	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// AblationRow is one (workload, configuration) makespan.
type AblationRow struct {
	Workload string
	Config   string
	Makespan float64
	// DeltaPct is the slowdown relative to the default configuration
	// on the same workload (positive = this configuration is worse).
	DeltaPct float64
}

// AblationResult benchmarks the design choices DESIGN.md §5 calls out:
// eviction, criticality tie-break, locality-aware POP (and its n and ε
// hyper-parameters), and the Eq. 1 gain normalization, each toggled
// independently on three workload classes.
type AblationResult struct {
	Rows []AblationRow
}

// ablationConfigs enumerates the compared configurations.
func ablationConfigs() []struct {
	name string
	cfg  core.Config
} {
	mk := func(f func(*core.Config)) core.Config {
		c := core.Defaults()
		f(&c)
		return c
	}
	return []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Defaults()},
		{"no-eviction", mk(func(c *core.Config) { c.DisableEviction = true })},
		{"no-criticality", mk(func(c *core.Config) { c.DisableCriticality = true })},
		{"no-locality", mk(func(c *core.Config) { c.DisableLocality = true })},
		{"flat-gain", mk(func(c *core.Config) { c.FlatGain = true })},
		{"n=3", mk(func(c *core.Config) { c.LocalityWindow = 3 })},
		{"n=30", mk(func(c *core.Config) { c.LocalityWindow = 30 })},
		{"eps=0.2", mk(func(c *core.Config) { c.Epsilon = 0.2 })},
		{"tries=1", mk(func(c *core.Config) { c.MaxTries = 1 })},
		{"tries=16", mk(func(c *core.Config) { c.MaxTries = 16 })},
	}
}

// RunAblation executes every configuration on a dense, an FMM, and a
// sparse workload on the Intel-V100 model. Configurations run on the
// sweep worker pool; the slowdown column is derived serially from the
// collected makespans (cfgs[0] is the default configuration).
func RunAblation(c *Ctx) (*AblationResult, error) {
	m := platform.IntelV100(platform.Config{})
	tiles := 24
	particles := 120_000
	matrix := sparseqr.Matrices[2] // e18
	if c.Scale == Full {
		tiles = 40
		particles = 400_000
		matrix = sparseqr.Matrices[5] // TF17
	}
	sparseTree := sparseqr.BuildTree(matrix)
	workloads := []workload{
		{"cholesky", func() *runtime.Graph {
			return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 960, Machine: m})
		}},
		{"fmm", func() *runtime.Graph {
			return fmm.Build(fmm.Params{Particles: particles, Height: 5, Machine: m, Seed: 3})
		}},
		{"sparseqr-" + matrix.Name, func() *runtime.Graph {
			return sparseqr.BuildFromTree(sparseTree, sparseqr.Params{Machine: m})
		}},
	}

	type job struct {
		wl  int
		cfg int
	}
	cfgs := ablationConfigs()
	var jobs []job
	for wi := range workloads {
		for ci := range cfgs {
			jobs = append(jobs, job{wl: wi, cfg: ci})
		}
	}
	makespans, err := sweep(c, len(jobs), func(i int) (float64, error) {
		j := jobs[i]
		g := workloads[j.wl].build()
		r, err := c.simulate(m, g, core.New(cfgs[j.cfg].cfg))
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", workloads[j.wl].name, cfgs[j.cfg].name, err)
		}
		return r.Makespan, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}
	for i, j := range jobs {
		wl, cfg := workloads[j.wl], cfgs[j.cfg]
		row := AblationRow{Workload: wl.name, Config: cfg.name, Makespan: makespans[i]}
		if base := makespans[i-j.cfg]; cfg.name != "default" && base > 0 {
			row.DeltaPct = pct(makespans[i], base)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the ablation table.
func (r *AblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: MultiPrio design choices (slowdown vs default config)")
	fmt.Fprintf(w, "%-22s %-16s %12s %10s\n", "workload", "config", "makespan", "delta")
	rule(w, 64)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-22s %-16s %11.4fs %+9.1f%%\n",
			row.Workload, row.Config, row.Makespan, row.DeltaPct)
	}
}
