package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// checkDeclaration compares BENCHMARK.json, which is written by hand,
// with the program's own tables, which are what actually runs: same
// workloads with the same reasons, same metrics with the same units,
// directions and bounds, in the same order. run.sh has every run do
// this, so the two cannot drift apart unnoticed even though the
// benchmark's tests are outside the root module's `go test ./...`.
func checkDeclaration(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: "+format, append([]any{path}, args...)...))
	}
	if len(decl.Workloads) != len(workloads) {
		bad("%d workloads declared, %d in the program", len(decl.Workloads), len(workloads))
	} else {
		for i, w := range workloads {
			if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
				bad("workload %d: declared %+v, program has %q: %q", i, d, w.name, w.why)
			}
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			bad("%s: %d metrics declared, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				bad("%s %d: declared %+v, program has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) {
				bad("%s %s: bound declared: %v, wanted: %v", kind, d.name, g.Bound != nil, bounded)
			} else if bounded && *g.Bound != d.bound {
				bad("%s %s: bound declared %v, program has %v", kind, d.name, *g.Bound, d.bound)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
	return errors.Join(errs...)
}
