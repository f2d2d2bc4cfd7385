// Package registry is the central scheduler catalog: policies register
// a named factory from their package init, and everything that needs a
// scheduler by name — experiment drivers, CLI tools, the conformance
// harness — asks here instead of maintaining its own name switch.
//
// Importing a policy package is what registers it; the aggregator
// package internal/sched/all blank-imports the full set.
package registry

import (
	"fmt"
	"sort"
	"sync"

	"multiprio/internal/runtime"
)

// Options carries the policy-generic tuning knobs a caller may override.
// Zero values mean "the policy's default"; policies without a matching
// knob ignore the field. The registry deliberately knows nothing about
// concrete config types (it must not import the policy packages — they
// import it to self-register).
type Options struct {
	// LocalityWindow is the top-n candidate window of locality-aware
	// pops (multiprio's n).
	LocalityWindow int
	// Epsilon is the score-distance eligibility bound of locality-aware
	// pops (multiprio's ε).
	Epsilon float64
	// Fallback names the dynamic policy hybrid-repair schedulers divert
	// deviated work to (empty means the policy's default, multiprio).
	// New validates it against the registry, so a CLI typo fails before
	// any run starts rather than inside a hybrid factory.
	Fallback string
}

// Factory builds one scheduler instance. Instances are single-run:
// engines re-Init them, but concurrent runs need one instance each.
type Factory func(Options) runtime.Scheduler

var (
	mu        sync.RWMutex
	factories = map[string]Factory{}
)

// Register adds a named factory; policy packages call it from init.
// Registering an empty name or a duplicate panics: both are programming
// errors worth failing loudly at process start.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("registry: Register with empty name or nil factory")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("registry: scheduler %q registered twice", name))
	}
	factories[name] = f
}

// New instantiates the named scheduler. The error lists the registered
// names, so a typo on a CLI flag is self-explaining.
func New(name string, opts Options) (runtime.Scheduler, error) {
	mu.RLock()
	f := factories[name]
	mu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("registry: unknown scheduler %q (have %v)", name, Names())
	}
	if opts.Fallback != "" {
		mu.RLock()
		ff := factories[opts.Fallback]
		mu.RUnlock()
		if ff == nil {
			return nil, fmt.Errorf("registry: unknown fallback scheduler %q (have %v)", opts.Fallback, Names())
		}
	}
	return f(opts), nil
}

// Names returns the registered scheduler names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
