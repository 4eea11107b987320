package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"c3/internal/trace"
)

// Snapshot is the JSON document served at /statusz: everything needed to
// understand a long run from the outside, in one fetch.
type Snapshot struct {
	Tool    string      `json:"tool"`
	PID     int         `json:"pid"`
	Version VersionInfo `json:"version"`
	// Start is the server's start time; UptimeMS the wall time since.
	Start    time.Time        `json:"start"`
	UptimeMS int64            `json:"uptime_ms"`
	Progress ProgressSnapshot `json:"progress"`
	// Metrics is the aggregate registry dump (counters, gauges,
	// histograms), or null when the tool registered none.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// Health is the JSON document served at /healthz: the cheap liveness
// answer (distinct from /statusz, which is the expensive "what is it
// doing" answer). Probes — load balancers, the campaign workers' probe
// of their coordinator, CI wait loops — poll it at high frequency, so
// it deliberately reads no locks, no registry, no progress state.
type Health struct {
	OK       bool        `json:"ok"`
	Tool     string      `json:"tool"`
	PID      int         `json:"pid"`
	UptimeMS int64       `json:"uptime_ms"`
	Version  VersionInfo `json:"version"`
}

// HealthzHandler returns the /healthz liveness handler for tool: a 200
// with the Health document. The version is captured once, at handler
// construction, so the per-probe cost is one time.Since and one small
// JSON encode. Any server that wants to be probeable (obs.Server mounts
// it; the campaign coordinator does too) should serve it at /healthz.
func HealthzHandler(tool string, start time.Time) http.HandlerFunc {
	version := Version()
	pid := os.Getpid()
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(Health{ //nolint:errcheck
			OK:       true,
			Tool:     tool,
			PID:      pid,
			UptimeMS: time.Since(start).Milliseconds(),
			Version:  version,
		})
	}
}

// Server is the opt-in live-introspection endpoint behind the commands'
// -statusz flag. It serves:
//
//	/statusz      the Snapshot JSON document
//	/healthz      the Health liveness document (cheap, probe-friendly)
//	/metricsz     just the registry dump
//	/debug/pprof  net/http/pprof (heap, cpu, goroutines, ...)
//	/debug/vars   expvar
//
// The server reads only data that is safe to read while the run
// executes: the Tracker locks, and any registry installed with
// SetRegistry must be backed by atomics or other synchronized readers —
// never by raw counters a live simulator goroutine is incrementing.
// Serving is pull-only and off the simulation threads, so an armed
// server leaves reports byte-identical to an unarmed run.
type Server struct {
	tool    string
	tracker *Tracker
	start   time.Time
	ln      net.Listener
	srv     *http.Server
	served  chan struct{} // closed when the Serve goroutine exits

	mu  sync.Mutex
	reg *trace.Registry
}

// StartStatusz listens on addr (":0" picks a free port) and serves the
// introspection endpoints for tool, reading progress from t (which may
// be shared with a Heartbeat).
func StartStatusz(addr, tool string, t *Tracker) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: statusz listen %s: %w", addr, err)
	}
	s := &Server{tool: tool, tracker: t, start: time.Now(), ln: ln, served: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/healthz", HealthzHandler(tool, s.start))
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	}()
	return s, nil
}

// Watch arms a tool's live introspection, both views reading t: statusz
// on addr (none when empty) with reg served at /metricsz, its address
// echoed to stderr, and a heartbeat line on stderr every interval (none
// when 0). stop ends both.
func Watch(tool, addr string, interval time.Duration, t *Tracker, reg *trace.Registry) (stop func(), err error) {
	var server *Server
	if addr != "" {
		if server, err = StartStatusz(addr, tool, t); err != nil {
			return nil, err
		}
		server.SetRegistry(reg)
		fmt.Fprintf(os.Stderr, "%s: statusz on http://%s/statusz\n", tool, server.Addr())
	}
	stopHeartbeat := func() {}
	if interval > 0 {
		stopHeartbeat = Heartbeat(context.Background(), os.Stderr, interval, tool, t)
	}
	return func() {
		stopHeartbeat()
		if server != nil {
			server.Close()
		}
	}, nil
}

// Addr reports the bound address ("127.0.0.1:43817"), for tests and for
// echoing the endpoint to the user after a ":0" bind.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetRegistry installs the aggregate metrics registry served at
// /metricsz and embedded in /statusz. Every reader closure in it must be
// concurrency-safe (atomic loads); it will be called from HTTP handler
// goroutines while the run executes.
func (s *Server) SetRegistry(r *trace.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = r
}

// Close stops serving: it closes the listener and open connections and
// waits for the accept goroutine to exit, so a shutdown leaks nothing
// (the goroutine-audit contract graceful shutdown relies on).
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.served
	return err
}

// metricsJSON renders the installed registry, or nil.
func (s *Server) metricsJSON() json.RawMessage {
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	if reg == nil {
		return nil
	}
	var b bytes.Buffer
	if err := reg.RenderJSON(&b); err != nil {
		return nil
	}
	return json.RawMessage(b.Bytes())
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Snapshot{
		Tool:     s.tool,
		PID:      os.Getpid(),
		Version:  Version(),
		Start:    s.start,
		UptimeMS: time.Since(s.start).Milliseconds(),
		Progress: s.tracker.Snapshot(),
		Metrics:  s.metricsJSON(),
	}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	m := s.metricsJSON()
	if m == nil {
		http.Error(w, "no registry installed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(m) //nolint:errcheck
}
