package httpd

import (
	"errors"
	"io"
	"net/http"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
	"multiprio/internal/telemetry"
)

// get fetches a URL and returns status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeEndpoints boots a server on an ephemeral port and checks
// every route: /metrics content type and body, /healthz, /readyz
// (including the unready state after Close), /debug/vars, and the pprof
// index.
func TestServeEndpoints(t *testing.T) {
	p := telemetry.NewProbe()
	// One failed run puts a sample on /metrics.
	p.RunStart(runtime.RunInfo{Engine: "sim", Scheduler: "eager"})
	p.RunEnd(nil, errors.New("smoke"))
	s, err := Serve("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(string(body), `multiprio_runs_total{result="error"} 1`) {
		t.Errorf("metrics body missing the failed run:\n%s", body)
	}

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
	if code, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz = %d", code)
	}
	if code, body := get(t, base+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("debug/vars = %d (%d bytes)", code, len(body))
	}
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index = %d", code)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if p.Health().Ready() {
		t.Error("probe still ready after Close")
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("server still answering after Close")
	}
}

// TestHealthzFlipsOnWatchdogAbort is the acceptance check of the
// bugfix-guard satellite: wedge a threaded run so the watchdog aborts
// it, observe /healthz flip to 503 with the watchdog reason while the
// server stays up, then shut the server down gracefully and prove no
// goroutine leaked — stdlib-only goleak-style accounting by goroutine
// count, with the labeled profile for diagnostics on failure.
func TestHealthzFlipsOnWatchdogAbort(t *testing.T) {
	baseline := runtimeGoroutines()

	p := telemetry.NewProbe()
	s, err := Serve("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	// Wedge: one kernel blocks on a channel until the test ends, so the
	// 30ms watchdog must abort the run.
	unwedge := make(chan struct{})
	g := runtime.NewGraph()
	g.Submit(runtime.TaskSpec{Kind: "wedged", Cost: []float64{0.001},
		Run: func(w runtime.WorkerInfo) { <-unwedge }})
	eng, err := runtime.NewThreadedEngine(platform.CPUOnly(2), eager.New(),
		runtime.WithObserver(p),
		runtime.WithWatchdog(30*time.Millisecond),
		runtime.WithWatchdogOutput(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(g)
	if !errors.Is(err, runtime.ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}

	code, body := get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "watchdog") {
		t.Fatalf("healthz after abort = %d %q, want 503 + watchdog reason", code, body)
	}
	// The abort is visible on /metrics too.
	if _, body := get(t, base+"/metrics"); !strings.Contains(body, `multiprio_runs_total{result="watchdog"} 1`) {
		t.Errorf("metrics missing watchdog run counter:\n%s", body)
	}
	// Readiness is about serving, not run health: still ready.
	if code, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz after abort = %d, want 200", code)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("graceful close after abort: %v", err)
	}
	close(unwedge) // release the wedged kernel goroutine

	// Goroutine accounting: everything the server and the aborted run
	// spawned must exit. Drop the client's keep-alive connections first
	// (their transport goroutines are the test's, not the server's),
	// then poll — worker goroutines unwind asynchronously after the
	// abort.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtimeGoroutines(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtimeGoroutines(), buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeBadAddr: an unusable address reports an error instead of
// panicking in the serve goroutine.
func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", telemetry.NewProbe()); err == nil {
		t.Fatal("expected listen error")
	}
}

// TestServeTwoProbes: expvar is process-global; serving a second probe
// must not panic on duplicate publication and the var follows the
// latest probe.
func TestServeTwoProbes(t *testing.T) {
	p1, p2 := telemetry.NewProbe(), telemetry.NewProbe()
	s1, err := Serve("127.0.0.1:0", p1)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Serve("127.0.0.1:0", p2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if code, body := get(t, "http://"+s2.Addr()+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, "multiprio") {
		t.Errorf("debug/vars on second server = %d", code)
	}
}

// runtimeGoroutines returns the current goroutine count.
func runtimeGoroutines() int {
	return pprof.Lookup("goroutine").Count()
}
