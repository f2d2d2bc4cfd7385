// Package internal holds the export census: every exported function or method
// under internal/... has a non-test reference in this module or is allowlisted.
package internal

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// allowed is what stays exported with no production caller, and why. A name
// that gains one, or loses its last test or benchmark/ caller, must leave.
var allowed = map[string]string{
	// benchmark/abi.go's ABI; the no-ops go with the next [benchmark] PR.
	"runtime.WithSeed":          "no-op",
	"runtime.WithTransferSpans": "no-op",
	"runtime.Graph.SubmitBatch": "slice-of-specs submission",
	"platform.NUMANode":         "the multi-socket machine of the policy benches",
	"heap.Heap.Update":          "the heap layer bench",
	// Safety and scenario seams: they bound or build a run no study asks for.
	"runtime.WithMaxEvents":      "bounds the fuzzers' simulations",
	"runtime.WithWatchdog":       "aborts a wedged run",
	"runtime.WithWatchdogOutput": "where the watchdog dumps",
	"runtime.WithPipeline":       "depth 1 builds the eviction tests' memory pressure",
	// Handles of other packages' tests.
	"heap.Heap.Verify":               "core: the heap invariants under MultiPrio's",
	"obs.Metrics.Samples":            "runtime: the run core's spec.* counter tracks",
	"sched/heft.Plan.Canonical":      "schedtest: the plan goldens digest it",
	"sched/heft.Plan.CriticalWorker": "sim, runtime: the victim of the static-plan fault scenarios",
	"stream.SplitEven":               "schedtest, oracle: tenant maps",
	"stream.UniformSpec":             "oracle: a uniform arrival spec",
	"trace.Trace.Canonical":          "schedtest, sim, distrib, trace: the trace goldens digest it, until ROADMAP item 2's binary digest",
}

// census type-checks the module's packages from their non-test files and
// imports them through itself; everything else comes from GOROOT source.
type census struct {
	fset *token.FileSet
	std  types.Importer
	src  map[string][]*ast.File
	pkgs map[string]*types.Package
	info map[string]*types.Info
}

func (c *census) Import(path string) (*types.Package, error) {
	if c.src[path] == nil {
		return c.std.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, c.src[path], info)
	c.pkgs[path], c.info[path] = pkg, info
	return pkg, err
}

func TestExportCensus(t *testing.T) {
	fset := token.NewFileSet()
	c := &census{fset, importer.ForCompiler(fset, "source", nil), map[string][]*ast.File{}, map[string]*types.Package{}, map[string]*types.Info{}}
	testWords := map[string]bool{} // every identifier a test or benchmark/ file spells
	err := filepath.WalkDir("..", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != ".." {
			return filepath.SkipDir // .git, build outputs
		}
		if err != nil || !strings.HasSuffix(p, ".go") {
			return err
		}
		// Only the files of a default build: internal/race declares its
		// constant once per side of the race tag.
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if rel := filepath.ToSlash(p[3:]); !strings.HasSuffix(p, "_test.go") && !strings.HasPrefix(rel, "benchmark/") {
			pkg := "multiprio/" + rel[:strings.LastIndex(rel, "/")]
			c.src[pkg] = append(c.src[pkg], f)
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				testWords[id.Name] = true
			}
			return true
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Used: a production file names it, or it satisfies an interface of the module
	// or of an imported package (fmt and encoding/json call String and MarshalJSON).
	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	for path := range c.src {
		pkg, err := c.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range c.info[path].Uses {
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin()] = true
			}
		}
		for _, p := range append(pkg.Imports(), pkg) {
			for _, n := range p.Scope().Names() {
				if it, ok := p.Scope().Lookup(n).Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	viaInterface := func(f *types.Func) bool {
		recv := f.Type().(*types.Signature).Recv()
		for _, it := range ifaces {
			for i := 0; recv != nil && i < it.NumMethods(); i++ {
				if it.Method(i).Name() == f.Name() && types.Implements(recv.Type(), it) {
					return true
				}
			}
		}
		return false
	}
	short := strings.NewReplacer("multiprio/internal/", "", "(", "", "*", "", ")", "")
	seen := map[string]bool{}
	for path, info := range c.info {
		for _, obj := range info.Defs {
			f, ok := obj.(*types.Func)
			if !ok || !f.Exported() || !strings.HasPrefix(path, "multiprio/internal/") || used[f] || viaInterface(f) {
				continue
			}
			name := short.Replace(f.FullName()) // pkg.Func or pkg.Type.Method
			if seen[name] = true; allowed[name] == "" {
				t.Errorf("%s is exported but no non-test file references it: call it, unexport it, delete it, or allowlist it with a reason", name)
			} else if !testWords[f.Name()] {
				t.Errorf("%s is allowlisted but no test or benchmark file calls it: delete it", name)
			}
		}
	}
	for name := range allowed {
		if !seen[name] {
			t.Errorf("allowlist entry %s is stale: it is gone, unexported, or has a production caller", name)
		}
	}
	if len(allowed) > 20 {
		t.Errorf("the allowlist has %d entries, the budget is 20", len(allowed))
	}
}
