package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"multiprio/internal/obs"
	"multiprio/internal/runtime"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// checkGolden compares got against testdata/<name> and fails with the
// first divergent line. Running `go test ./internal/experiments -update`
// rewrites the files after an intentional output change.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
}

// runCounter is a RunObserver counting run brackets.
type runCounter struct{ starts, ends atomic.Int64 }

func (c *runCounter) Decision(obs.Decision)                   {}
func (c *runCounter) Counter(string, float64, int64, float64) {}
func (c *runCounter) RunStart(runtime.RunInfo)                { c.starts.Add(1) }
func (c *runCounter) RunEnd(*runtime.Result, error)           { c.ends.Add(1) }

// quickRun is one study's quick-scale run.
type quickRun struct {
	once   sync.Once
	report Report
	table  []byte
	runs   runCounter
	err    error
	// takers holds the names of the tests that took the run (under
	// quickMu).
	takers map[string]bool
}

// quickRuns holds one quickRun per study: a study costs up to a second,
// so the table-driven tests below and the per-study shape tests of one
// pass share its run instead of each making their own. A test
// that takes a run it has taken before is in the next pass of `go test
// -count=N`, and gets a fresh run: every pass runs each study it needs
// again.
var (
	quickMu   sync.Mutex
	quickRuns = map[string]*quickRun{}
)

// slowStudies take about a second at quick scale and are skipped under
// -short. Quick runs on the 8-worker pool, one study at a time, 2-core
// Xeon: fig8 0.9–1.1 s, scale 1.0–1.1 s; every other study under 0.35 s.
var slowStudies = map[string]bool{"fig8": true, "scale": true}

// studyNamed looks a study up in the table.
func studyNamed(t *testing.T, name string) Study {
	t.Helper()
	for _, s := range Studies() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no study named %q", name)
	return Study{}
}

// quick returns the shared run of the named study: on an 8-worker pool
// with a counting observer attached. Under -update the run is what
// `multiprio-bench -exp name -quick -j 1` does, serial and unobserved,
// so every golden file is a serial table and an ordinary pass compares
// the pooled, observed run against it: that one comparison shows that
// neither the pool nor the observer changes a table.
func quick(t *testing.T, name string) *quickRun {
	t.Helper()
	if slowStudies[name] && testing.Short() {
		t.Skipf("%s takes about a second", name)
	}
	quickMu.Lock()
	q := quickRuns[name]
	if q == nil || q.takers[t.Name()] {
		q = &quickRun{takers: map[string]bool{}}
		quickRuns[name] = q
	}
	q.takers[t.Name()] = true
	quickMu.Unlock()
	q.once.Do(func() {
		c := &Ctx{Scale: Quick, Workers: 8, Observer: &q.runs}
		if *update {
			c = &Ctx{Scale: Quick, Workers: 1}
		}
		if q.report, q.err = studyNamed(t, name).Run(c); q.err == nil {
			var b bytes.Buffer
			q.report.Print(&b)
			q.table = b.Bytes()
		}
	})
	if q.err != nil {
		t.Fatal(q.err)
	}
	return q
}

// observed is the counting observer of the named study's shared run;
// the -update run has none, so a test reading it is skipped there.
func observed(t *testing.T, name string) *runCounter {
	t.Helper()
	if *update {
		t.Skip("the -update run is unobserved")
	}
	return &quick(t, name).runs
}

// quickResult is the typed report of the named study's shared run.
func quickResult[R Report](t *testing.T, name string) R {
	t.Helper()
	return quick(t, name).report.(R)
}

// TestGoldenStudies pins every study's quick-scale table, byte for
// byte, to the output of `multiprio-bench -exp <name> -quick` recorded
// serially. Table II and Fig. 3 flow through the scheduler's gain and
// NOD code, so a regression in either heuristic shows as a diff; every
// other golden is a standing end-to-end determinism check of the
// simulator, and, since the run compared is pooled and observed, of the
// sweep runner's configuration-order reduction and of the observer's
// neutrality. Under `go test -race` it also shows the pool is data-race
// free.
func TestGoldenStudies(t *testing.T) {
	for _, s := range Studies() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, s.Name+"_quick.golden", quick(t, s.Name).table)
		})
	}
}
