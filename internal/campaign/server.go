package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"c3/internal/litmus"
	"c3/internal/obs"
)

// Wire types of the coordinator protocol (all JSON over HTTP). Workers
// and coordinator must be built from the same code — the row-key
// suffix enforces this — so the protocol carries no compatibility
// machinery beyond the spec handshake, and the sweep travels as
// litmus.SoakConfig's own JSON.

// SpecResponse is GET /spec: the normalized sweep, its row-key suffix,
// and the job count.
type SpecResponse struct {
	Sweep  litmus.SoakConfig `json:"spec"`
	Suffix string            `json:"suffix"`
	Jobs   int               `json:"jobs"`
}

// LeaseRequest is POST /lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse answers a granted lease. Job is the shard's index into
// litmus.Campaigns of the sweep — the merge slot its row lands in — and
// Label its row label, which the worker checks against its own
// expansion. TTLMS is the renewal deadline: heartbeat well before it
// (the worker uses TTL/3). Attempt numbers the execution the lease is
// for, from 1.
type LeaseResponse struct {
	Job     int    `json:"job"`
	Label   string `json:"label"`
	Lease   string `json:"lease"`
	TTLMS   int64  `json:"ttl_ms"`
	Attempt int    `json:"attempt"`
}

// HeartbeatRequest is POST /heartbeat: the worker's active leases.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Leases []string `json:"leases"`
}

// HeartbeatResponse lists which of those leases are still valid.
type HeartbeatResponse struct {
	Valid []string `json:"valid"`
}

// ResultRequest is POST /result: one completed shard row. RowKey must
// equal the coordinator's expected key for the job (label + suffix) —
// the content-address check that rejects mismatched binaries.
type ResultRequest struct {
	Worker string         `json:"worker"`
	Lease  string         `json:"lease"`
	JobID  int            `json:"job_id"`
	RowKey string         `json:"row_key"`
	Row    litmus.SoakRun `json:"row"`
}

// ReleaseRequest is POST /release: return a lease early. Failure is the
// failed attempt's row (a task-deadline cut, a panic, a worker-side
// error), which spends one of the shard's retries and is its final row
// once they run out; a graceful shutdown releases without one, at no
// cost.
type ReleaseRequest struct {
	Worker  string          `json:"worker"`
	Lease   string          `json:"lease"`
	Failure *litmus.SoakRun `json:"failure,omitempty"`
}

// ResultEvent is one line of the GET /results JSONL stream: every
// accepted row, in acceptance order, closed when the campaign is over.
type ResultEvent struct {
	JobID  int            `json:"job_id"`
	Label  string         `json:"label"`
	RowKey string         `json:"row_key"`
	Row    litmus.SoakRun `json:"row"`
}

// WorkerStatus is one worker's liveness row in the /statusz snapshot.
type WorkerStatus struct {
	Name       string `json:"name"`
	LastSeenMS int64  `json:"last_seen_ms"`
	Leases     int    `json:"leases"`
	Results    int    `json:"results"`
}

// Statusz is the coordinator's GET /statusz document.
type Statusz struct {
	Tool     string               `json:"tool"`
	PID      int                  `json:"pid"`
	Version  obs.VersionInfo      `json:"version"`
	Start    time.Time            `json:"start"`
	UptimeMS int64                `json:"uptime_ms"`
	Suffix   string               `json:"suffix"`
	Sweep    litmus.SoakConfig    `json:"spec"`
	Jobs     litmus.QueueSnapshot `json:"jobs"`
	Workers  []WorkerStatus       `json:"workers"`
	Done     bool                 `json:"done"`
}

// DefaultLeaseTTL is the coordinator's default lease lifetime.
const DefaultLeaseTTL = 30 * time.Second

// ServerConfig parameterizes the coordinator. A shard's failure budget
// is the sweep's Retries: lease expiries and failed attempts alike, and
// the next failure leaves a loud error row instead of looping forever.
type ServerConfig struct {
	// Sweep is the campaign to coordinate. Its Completed seeds the queue
	// with rows replayed from the journal (LoadCheckpoints) — the
	// coordinator-restart path; its other run-time fields (Workers,
	// Timeout, Interrupt, Observer) are not used.
	Sweep litmus.SoakConfig
	// LeaseTTL bounds each lease (default DefaultLeaseTTL): a worker
	// that neither heartbeats nor submits within it loses the shard.
	LeaseTTL time.Duration
	// LedgerPath, when non-empty, journals every accepted row as a
	// c3-run/v1 checkpoint record (the resume format) and the run record
	// on Close.
	LedgerPath string
	// Now overrides the clock (tests).
	Now func() time.Time
	// Warnf sinks human-readable warnings (journal write failures,
	// rejected results); default stderr.
	Warnf func(format string, args ...any)
}

// Server is the campaign coordinator: the job queue behind an HTTP API.
// All protocol state lives in the Queue; the server adds transport,
// worker liveness, journaling, and the statusz/healthz endpoints.
type Server struct {
	cfg    ServerConfig
	suffix string
	camps  []litmus.Campaign // the sweep's shards, indexed by job ID
	queue  *litmus.Queue[litmus.SoakRun]
	start  time.Time

	ln     net.Listener
	srv    *http.Server
	served chan struct{}

	janitorStop chan struct{}
	janitorDead chan struct{}

	closeOnce sync.Once
	closeErr  error

	mu      sync.Mutex
	workers map[string]*workerInfo
	// accepted is the journal of accepted results in acceptance order,
	// feeding the /results stream.
	accepted []ResultEvent
}

type workerInfo struct {
	lastSeen time.Time
	leases   map[string]struct{}
	results  int
}

// StartServer expands cfg.Sweep (defaults applied), builds the queue
// (seeded with replayed checkpoints), and serves the coordinator API on
// addr (":0" picks a free port).
func StartServer(addr string, cfg ServerConfig) (*Server, error) {
	cfg.Sweep = cfg.Sweep.WithDefaults()
	camps, err := litmus.Campaigns(cfg.Sweep)
	if err != nil {
		return nil, err
	}
	if cfg.Warnf == nil {
		cfg.Warnf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "c3serve: "+format+"\n", args...)
		}
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	s := &Server{
		cfg:         cfg,
		suffix:      RowSuffix(cfg.Sweep),
		camps:       camps,
		queue:       litmus.NewSoakQueue(camps, cfg.Sweep.Completed, cfg.LeaseTTL, cfg.Sweep.Retries, cfg.Now),
		start:       time.Now(),
		served:      make(chan struct{}),
		janitorStop: make(chan struct{}),
		janitorDead: make(chan struct{}),
		workers:     make(map[string]*workerInfo),
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("campaign: listen %s: %w", addr, err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", obs.HealthzHandler("c3serve", s.start))
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/spec", s.handleSpec)
	mux.HandleFunc("/lease", s.handleLease)
	mux.HandleFunc("/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/result", s.handleResult)
	mux.HandleFunc("/release", s.handleRelease)
	mux.HandleFunc("/results", s.handleResults)
	mux.HandleFunc("/report", s.handleReport)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	}()

	// Janitor: expire stale leases even when no request traffic arrives
	// (all workers dead). Quarter-TTL keeps requeue latency well under
	// one TTL without busy-polling.
	go func() {
		defer close(s.janitorDead)
		tick := time.NewTicker(cfg.LeaseTTL / 4)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.queue.ExpireStale()
			case <-s.janitorStop:
				return
			}
		}
	}()
	return s, nil
}

// Addr reports the bound address ("127.0.0.1:43817").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Queue exposes the underlying queue (tests; Stop on a sweep timeout).
func (s *Server) Queue() *litmus.Queue[litmus.SoakRun] { return s.queue }

// Suffix is the coordinator's row-key fingerprint.
func (s *Server) Suffix() string { return s.suffix }

// Done reports the channel closed when every shard is terminal.
func (s *Server) Done() <-chan struct{} { return s.queue.Done() }

// Report assembles the merged campaign report — in canonical job order,
// rendered by the same SoakReport.Render a single-process run uses, so
// a completed campaign's report is byte-identical to it.
func (s *Server) Report() *litmus.SoakReport {
	return &litmus.SoakReport{Runs: s.queue.Rows()}
}

// Close stops the queue (unfinished shards read INTERRUPTED unless a
// sweep timeout stopped it first), stops serving, and joins the accept
// and janitor goroutines. Result streamers blocked on an unfinished
// campaign are unblocked first, so a shutdown leaks nothing. Safe to
// call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.queue.Stop(0)
		close(s.janitorStop)
		s.closeErr = s.srv.Close()
		<-s.served
		<-s.janitorDead
	})
	return s.closeErr
}

// touchWorker updates the liveness registry from any worker request.
func (s *Server) touchWorker(name string, mut func(*workerInfo)) {
	if name == "" {
		name = "(anonymous)"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[name]
	if w == nil {
		w = &workerInfo{leases: make(map[string]struct{})}
		s.workers[name] = w
	}
	w.lastSeen = time.Now()
	if mut != nil {
		mut(w)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// maxRequestBytes caps a request body; the largest request carries one
// row.
const maxRequestBytes = 1 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return false
	case err != nil:
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handleSpec(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, SpecResponse{Sweep: s.cfg.Sweep, Suffix: s.suffix, Jobs: len(s.camps)})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	id, lease, ok, done := s.queue.Lease(req.Worker)
	if done {
		// 410: the campaign is over; workers exit.
		http.Error(w, "campaign complete", http.StatusGone)
		return
	}
	if !ok {
		// 204: nothing leasable right now (backoff gates, all in
		// flight); poll again shortly.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.touchWorker(req.Worker, func(wi *workerInfo) { wi.leases[lease.ID] = struct{}{} })
	writeJSON(w, LeaseResponse{Job: id, Label: s.camps[id].Label(), Lease: lease.ID,
		TTLMS: lease.TTL.Milliseconds(), Attempt: lease.Attempt})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	valid := s.queue.Heartbeat(req.Worker, req.Leases)
	s.touchWorker(req.Worker, func(wi *workerInfo) {
		for id := range wi.leases {
			delete(wi.leases, id)
		}
		for _, id := range valid {
			wi.leases[id] = struct{}{}
		}
	})
	writeJSON(w, HeartbeatResponse{Valid: valid})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.JobID < 0 || req.JobID >= len(s.camps) {
		http.Error(w, fmt.Sprintf("unknown job %d", req.JobID), http.StatusBadRequest)
		return
	}
	label := s.camps[req.JobID].Label()
	// Content-address check: the submitted key must be the one this
	// coordinator's binary computes. A mismatch means the worker runs
	// different code — merging its row could silently break the
	// byte-identical guarantee, so reject loudly and let the lease
	// expire back into the queue.
	want := rowKey(label, s.suffix)
	if req.RowKey != want {
		s.cfg.Warnf("rejecting result for %s from worker %q: row key %q != %q (mismatched binary?)",
			label, req.Worker, req.RowKey, want)
		http.Error(w, "row key mismatch: worker binary differs from coordinator", http.StatusConflict)
		return
	}
	if req.Row.Interrupted {
		http.Error(w, "interrupted rows carry no verdict; release the lease instead", http.StatusBadRequest)
		return
	}
	// The completion and its /results event land under one lock, so a
	// stream that sees the campaign end already holds every row.
	s.mu.Lock()
	first, err := s.queue.Complete(req.JobID, req.Row)
	if first {
		s.accepted = append(s.accepted, ResultEvent{
			JobID: req.JobID, Label: label, RowKey: want, Row: req.Row,
		})
	}
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.touchWorker(req.Worker, func(wi *workerInfo) {
		delete(wi.leases, req.Lease)
		wi.results++
	})
	// Journal before acknowledging: once the worker sees 200 the row
	// must survive a coordinator restart. (Losing the append on a crash
	// is safe the other way — the shard just re-runs.)
	if first && s.cfg.LedgerPath != "" {
		if err := AppendRowRecord(s.cfg.LedgerPath, "c3serve", want, req.Row); err != nil {
			s.cfg.Warnf("journal: %v", err)
		}
	}
	writeJSON(w, map[string]bool{"accepted": true, "first": first})
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if f := req.Failure; f != nil && (f.Err == "" || f.Interrupted) {
		// It may become the shard's final row: it must be a failure.
		http.Error(w, "a failure row carries its error; release an interrupted attempt without one", http.StatusBadRequest)
		return
	}
	_, found := s.queue.Release(req.Lease, req.Failure)
	s.touchWorker(req.Worker, func(wi *workerInfo) { delete(wi.leases, req.Lease) })
	writeJSON(w, map[string]bool{"released": found})
}

// handleResults streams every accepted row as JSONL: first the backlog,
// then live rows as they arrive, ending when the campaign is over. This
// is the "streaming result delivery" surface — a consumer tailing it
// sees each shard's row once, in acceptance order, without polling.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	seq := uint64(0)
	for {
		s.mu.Lock()
		backlog := s.accepted[sent:]
		s.mu.Unlock()
		for i := range backlog {
			if err := enc.Encode(&backlog[i]); err != nil {
				return // client went away
			}
			sent++
		}
		if flusher != nil {
			flusher.Flush()
		}
		var done bool
		seq, done = s.queue.WaitResult(seq)
		if done {
			// Drain anything accepted between the snapshot and WaitResult.
			s.mu.Lock()
			tail := s.accepted[sent:]
			s.mu.Unlock()
			for i := range tail {
				if err := enc.Encode(&tail[i]); err != nil {
					return
				}
				sent++
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		default:
		}
	}
}

// handleReport serves the merged report: 200 with the rendered table
// when the campaign is complete, 409 with current progress otherwise.
func (s *Server) handleReport(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-s.queue.Done():
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.Report().Render()) //nolint:errcheck
	default:
		snap := s.queue.Snapshot()
		http.Error(w, fmt.Sprintf("campaign in flight: %d/%d shards done", snap.Done+snap.Quarantined, snap.Total),
			http.StatusConflict)
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	st := Statusz{
		Tool:     "c3serve",
		PID:      os.Getpid(),
		Version:  obs.Version(),
		Start:    s.start,
		UptimeMS: now.Sub(s.start).Milliseconds(),
		Suffix:   s.suffix,
		Sweep:    s.cfg.Sweep,
		Jobs:     s.queue.Snapshot(),
	}
	select {
	case <-s.queue.Done():
		st.Done = true
	default:
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.workers))
	for n := range s.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		wi := s.workers[n]
		st.Workers = append(st.Workers, WorkerStatus{
			Name:       n,
			LastSeenMS: now.Sub(wi.lastSeen).Milliseconds(),
			Leases:     len(wi.leases),
			Results:    wi.results,
		})
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck
}
