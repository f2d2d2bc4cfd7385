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

// ablationConfigs are the compared configurations: the default, then
// the default with one setting changed.
var ablationConfigs = []struct {
	name string
	set  func(*core.Config)
}{
	{"default", func(*core.Config) {}},
	{"no-eviction", func(c *core.Config) { c.DisableEviction = true }},
	{"no-criticality", func(c *core.Config) { c.DisableCriticality = true }},
	{"no-locality", func(c *core.Config) { c.DisableLocality = true }},
	{"flat-gain", func(c *core.Config) { c.FlatGain = true }},
	{"n=3", func(c *core.Config) { c.LocalityWindow = 3 }},
	{"n=30", func(c *core.Config) { c.LocalityWindow = 30 }},
	{"eps=0.2", func(c *core.Config) { c.Epsilon = 0.2 }},
	{"tries=1", func(c *core.Config) { c.MaxTries = 1 }},
	{"tries=16", func(c *core.Config) { c.MaxTries = 16 }},
}

// RunAblation executes every configuration on a dense, an FMM, and a
// sparse workload on the Intel-V100 model. Configurations run on the
// sweep worker pool; the slowdown column is derived serially from the
// collected makespans (column 0 is the default configuration).
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
	ws := []workload{
		newWorkload("cholesky", m, func() (*runtime.Graph, error) {
			return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 960, Machine: m}), nil
		}),
		newWorkload("fmm", m, func() (*runtime.Graph, error) {
			return fmm.Build(fmm.Params{Particles: particles, Height: 5, Machine: m, Seed: 3}), nil
		}),
		newWorkload("sparseqr-"+matrix.Name, m, func() (*runtime.Graph, error) {
			return sparseqr.BuildFromTree(sparseqr.BuildTree(matrix), sparseqr.Params{Machine: m}), nil
		}),
	}
	cfgs := ablationConfigs
	makespans, err := grid(c, ws, len(cfgs), func(w workload, g *runtime.Graph, col int) (float64, error) {
		cfg := core.Defaults()
		cfgs[col].set(&cfg)
		r, err := c.simulate(m, g, core.New(cfg))
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", w.name, cfgs[col].name, err)
		}
		return r.Makespan, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}
	for i, ms := range makespans {
		w, ci := ws[i/len(cfgs)], i%len(cfgs)
		row := AblationRow{Workload: w.name, Config: cfgs[ci].name, Makespan: ms}
		if base := makespans[i-ci]; ci > 0 && base > 0 {
			row.DeltaPct = pct(ms, base)
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
