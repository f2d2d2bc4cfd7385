package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
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

type quickKey struct {
	name    string
	workers int
}

// quickRuns holds one quickRun per (study, pool size): a study costs up
// to three seconds, so the table-driven tests below and the per-study
// shape tests of one pass share its runs instead of each making their
// own. A test that takes a run it has taken before is in the next pass
// of `go test -count=N`, and gets a fresh run: every pass runs each
// study it needs again.
var (
	quickMu   sync.Mutex
	quickRuns = map[quickKey]*quickRun{}
)

// slowStudies take over a second at quick scale and are skipped under
// -short. Serial quick runs on a 2-core Xeon: fig8 2.2–3.1 s, scale
// 2.0–2.2 s, energy 1.0–1.5 s; every other study under 0.9 s.
var slowStudies = map[string]bool{"fig8": true, "energy": true, "scale": true}

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

// quick returns the shared run of the named study on a pool of the
// given size. The serial run is what `multiprio-bench -exp name -quick
// -j 1` does; the pooled runs carry a counting observer besides, so
// comparing the two also shows the observer changes no table.
func quick(t *testing.T, name string, workers int) *quickRun {
	t.Helper()
	if slowStudies[name] && testing.Short() {
		t.Skipf("%s takes over a second", name)
	}
	quickMu.Lock()
	key := quickKey{name, workers}
	q := quickRuns[key]
	if q == nil || q.takers[t.Name()] {
		q = &quickRun{takers: map[string]bool{}}
		quickRuns[key] = q
	}
	q.takers[t.Name()] = true
	quickMu.Unlock()
	q.once.Do(func() {
		c := &Ctx{Scale: Quick, Workers: workers}
		if workers > 1 {
			c.Observer = &q.runs
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

// quickResult is the typed report of the named study's serial run.
func quickResult[R Report](t *testing.T, name string) R {
	t.Helper()
	return quick(t, name, 1).report.(R)
}

// timedStudies print wall-clock columns: of their rows (the lines with
// that many fields below the header's rule) only the other columns are
// compared, and overhead orders its rows by the measurement, so its rows
// are compared sorted.
var timedStudies = map[string]struct {
	fields int
	clock  []int
	sorted bool
}{
	"overhead":  {3, []int{1, 2}, true},        // push ns, pop ns
	"telemetry": {6, []int{1, 2, 3, 4}, false}, // bare, telem and export ms, delta
	"scale":     {8, []int{2, 3, 4}, false},    // build s, run s, tasks/s
}

// deterministic blanks the wall-clock columns of a timed study's table
// and returns any other table unchanged.
func deterministic(name string, table []byte) []byte {
	spec, ok := timedStudies[name]
	if !ok {
		return table
	}
	var head, rows, tail []string
	ruled := false
	for _, line := range strings.SplitAfter(string(table), "\n") {
		f := strings.Fields(line)
		switch {
		case ruled && len(f) == spec.fields:
			for _, col := range spec.clock {
				f[col] = "~"
			}
			rows = append(rows, strings.Join(f, " ")+"\n")
		case len(rows) == 0:
			head = append(head, line)
			ruled = ruled || strings.HasPrefix(line, "---")
		default:
			tail = append(tail, line)
		}
	}
	if spec.sorted {
		sort.Strings(rows)
	}
	return []byte(strings.Join(head, "") + strings.Join(rows, "") + strings.Join(tail, ""))
}

// TestGoldenStudies pins every study's quick-scale table, byte for byte
// (the deterministic columns for the three timed ones), to the output
// of `multiprio-bench -exp <name> -quick` recorded before the studies
// became a table. Table II and Fig. 3 flow through the scheduler's gain
// and NOD code, so a regression in either heuristic shows as a diff;
// every other golden is a standing end-to-end determinism check of the
// simulator.
func TestGoldenStudies(t *testing.T) {
	for _, s := range Studies() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, s.Name+"_quick.golden", deterministic(s.Name, quick(t, s.Name, 1).table))
		})
	}
}
