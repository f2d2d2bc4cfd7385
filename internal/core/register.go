package core

import (
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
)

// The registry names: the paper's scheduler plus one entry per ablation
// of DESIGN.md §5. Registry options map onto the matching Config knobs;
// zero values keep the paper defaults.
func init() {
	register := func(name string, mod func(*Config)) {
		registry.Register(name, func(o registry.Options) runtime.Scheduler {
			cfg := Defaults()
			if o.LocalityWindow > 0 {
				cfg.LocalityWindow = o.LocalityWindow
			}
			if o.Epsilon > 0 {
				cfg.Epsilon = o.Epsilon
			}
			if mod != nil {
				mod(&cfg)
			}
			return New(cfg)
		})
	}
	register("multiprio", nil)
	register("multiprio-noevict", func(c *Config) { c.DisableEviction = true })
	register("multiprio-nocrit", func(c *Config) { c.DisableCriticality = true })
	register("multiprio-nolocal", func(c *Config) { c.DisableLocality = true })
	register("multiprio-flatgain", func(c *Config) { c.FlatGain = true })
}
