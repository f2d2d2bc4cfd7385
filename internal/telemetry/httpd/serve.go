// Package httpd serves a telemetry probe over HTTP: Prometheus metrics,
// health and readiness, expvar and pprof. It is its own package because
// net/http pulls net/netip into every binary that links it, and
// net/netip's package-level state costs the collector a couple of
// objects per cycle: a binary that only observes runs (the benchmark)
// imports telemetry without it.
package httpd

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"multiprio/internal/telemetry"
)

// promContentType is the Content-Type of the Prometheus text exposition
// format served on /metrics.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// shutdownTimeout bounds graceful drain on Close before in-flight
// scrapes are cut off.
const shutdownTimeout = 5 * time.Second

// expvarProbe is the probe whose snapshot the process-wide
// /debug/vars "multiprio" var reflects (expvar is process-global and
// Publish is once-only, so the var follows the most recently served
// probe).
var (
	expvarProbe atomic.Pointer[telemetry.Probe]
	expvarOnce  sync.Once
)

// NewMux builds the telemetry route table for p:
//
//	/metrics     Prometheus text exposition of the probe's registry
//	/healthz     200 while healthy, 503 + reason after a watchdog or
//	             starvation abort (cleared by the next clean run)
//	/readyz      200 once serving, 503 while down or shutting down
//	/debug/vars  expvar JSON (includes a "multiprio" snapshot var)
//	/debug/pprof the standard pprof index and profiles
//
// It is exported so tests and embedders can mount the routes on their
// own server.
func NewMux(p *telemetry.Probe) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		p.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := p.Health().Healthy(); !ok {
			http.Error(w, "unhealthy: "+reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !p.Health().Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry endpoint. Close shuts it down
// gracefully and waits for the serve goroutine to exit, so a Server is
// leak-free under goroutine accounting once Close returns.
type Server struct {
	probe *telemetry.Probe
	srv   *http.Server
	ln    net.Listener
	done  chan struct{}
}

// Serve starts a telemetry HTTP server for p on addr (e.g. ":9090", or
// "127.0.0.1:0" to pick a free port) and marks the probe ready. The
// server runs until Close.
func Serve(addr string, p *telemetry.Probe) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	expvarProbe.Store(p)
	expvarOnce.Do(func() {
		expvar.Publish("multiprio", expvar.Func(func() any {
			if cur := expvarProbe.Load(); cur != nil {
				return cur.Snapshot()
			}
			return nil
		}))
	})
	s := &Server{
		probe: p,
		srv:   &http.Server{Handler: NewMux(p)},
		ln:    ln,
		done:  make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	p.Health().SetReady(true)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close drains in-flight requests, stops the listener, waits for the
// serve goroutine to exit, and flips the probe unready. It is safe to
// call after a run abort (watchdog, starvation): the endpoint keeps
// answering /healthz with 503 until Close, then goes away entirely
// without leaking the serve goroutine.
func (s *Server) Close() error {
	s.probe.Health().SetReady(false)
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}
