package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"c3/internal/litmus"
	"c3/internal/obs"
)

// WorkerConfig parameterizes one worker process (or in-process worker,
// in tests).
type WorkerConfig struct {
	// Coordinator is the base URL ("http://127.0.0.1:8423").
	Coordinator string
	// Name identifies the worker in leases and statusz (default
	// "host:pid").
	Name string
	// Slots is how many shards the worker runs concurrently (default 1).
	// Each slot is an independent lease loop; shard results are
	// scheduling-independent, so slots never affect report bytes.
	Slots int
	// Poll is the idle re-poll interval when the queue has nothing
	// leasable (default 500ms).
	Poll time.Duration
	// ProbeTimeout bounds the initial /healthz probe loop (default 30s):
	// a worker started before its coordinator waits this long for it to
	// come up before failing.
	ProbeTimeout time.Duration
	// Interrupt, when non-nil, requests graceful shutdown once closed:
	// in-flight shards stop at their next poll, their leases are
	// released without penalty, and RunWorker returns ErrWorkerInterrupted.
	Interrupt <-chan struct{}
	// Logf sinks progress lines (default stderr; tests use a discard).
	Logf func(format string, args ...any)
}

// ErrWorkerInterrupted reports a graceful worker shutdown: leases were
// released, no result was lost, the campaign continues elsewhere.
var ErrWorkerInterrupted = errors.New("campaign: worker interrupted")

// RunWorker joins the coordinator's campaign and runs shards until the
// coordinator reports the campaign complete (nil), the worker is
// interrupted (ErrWorkerInterrupted), or the coordinator stays
// unreachable past its liveness grace (error).
//
// The loop, per slot: lease a shard, run one attempt of it through
// litmus.Campaign.Attempt (the single-process executor — same seeds,
// same bytes), submit the row under its content-addressed key — or hand
// a failed attempt back for the coordinator's queue to retry — repeat.
// The worker keeps no retry budget of its own. A heartbeat goroutine
// renews all held leases at TTL/3; if the coordinator dies mid-shard
// the submit fails, the worker retries against /healthz, and gives up
// after ProbeTimeout.
func RunWorker(cfg WorkerConfig) error {
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "c3worker: "+format+"\n", args...)
		}
	}
	w := &worker{cfg: cfg, client: &http.Client{Timeout: 30 * time.Second},
		leases: make(map[string]struct{})}

	// Probe the coordinator's liveness endpoint before joining: a fleet
	// manager can start workers and coordinator in any order.
	if err := w.waitHealthy(); err != nil {
		return err
	}
	spec, err := w.fetchSpec()
	if err != nil {
		return err
	}
	// The handshake: this binary must compute the same row-key
	// fingerprint the coordinator does, or every result would be
	// rejected. Fail loudly now instead.
	if local := RowSuffix(spec.Sweep); local != spec.Suffix {
		return fmt.Errorf("campaign: version mismatch: worker fingerprint %q != coordinator %q (rebuild the worker from the coordinator's code)",
			local, spec.Suffix)
	}
	camps, err := litmus.Campaigns(spec.Sweep)
	if err != nil {
		return err
	}
	spec.Sweep.Interrupt = cfg.Interrupt
	w.suffix, w.sweep, w.camps = spec.Suffix, spec.Sweep, camps
	cfg.Logf("joined %s: %d jobs, suffix %q, %d slot(s)", cfg.Coordinator, spec.Jobs, spec.Suffix, cfg.Slots)

	// One heartbeat loop for all slots. TTL arrives with the first
	// lease; until then the loop idles.
	hbStop := make(chan struct{})
	hbDead := make(chan struct{})
	go w.heartbeatLoop(hbStop, hbDead)
	defer func() { close(hbStop); <-hbDead }()

	var wg sync.WaitGroup
	errs := make([]error, cfg.Slots)
	for i := 0; i < cfg.Slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.slotLoop()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type worker struct {
	cfg    WorkerConfig
	client *http.Client
	suffix string
	sweep  litmus.SoakConfig
	camps  []litmus.Campaign // the sweep's shards, indexed by job ID

	mu     sync.Mutex
	leases map[string]struct{}
	ttl    time.Duration
}

func (w *worker) interrupted() bool {
	if w.cfg.Interrupt == nil {
		return false
	}
	select {
	case <-w.cfg.Interrupt:
		return true
	default:
		return false
	}
}

// sleep waits d or until interrupt.
func (w *worker) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	if w.cfg.Interrupt == nil {
		<-t.C
		return
	}
	select {
	case <-t.C:
	case <-w.cfg.Interrupt:
	}
}

func (w *worker) url(path string) string { return w.cfg.Coordinator + path }

func (w *worker) postJSON(path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	r, err := w.client.Post(w.url(path), "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	if r.StatusCode == http.StatusOK && resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			return r.StatusCode, err
		}
		return r.StatusCode, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(r.Body, 4096))
	if r.StatusCode >= 400 {
		return r.StatusCode, fmt.Errorf("campaign: %s: %s: %s", path, r.Status, bytes.TrimSpace(msg))
	}
	return r.StatusCode, nil
}

// waitHealthy polls the coordinator's /healthz until it answers 200 or
// ProbeTimeout elapses.
func (w *worker) waitHealthy() error {
	deadline := time.Now().Add(w.cfg.ProbeTimeout)
	var lastErr error
	for {
		if w.interrupted() {
			return ErrWorkerInterrupted
		}
		resp, err := w.client.Get(w.url("/healthz"))
		if err == nil {
			var h obs.Health
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.OK {
				return nil
			}
			err = fmt.Errorf("campaign: /healthz: status %d", resp.StatusCode)
		}
		lastErr = err
		if time.Now().After(deadline) {
			return fmt.Errorf("campaign: coordinator %s unhealthy after %v: %w",
				w.cfg.Coordinator, w.cfg.ProbeTimeout, lastErr)
		}
		w.sleep(250 * time.Millisecond)
	}
}

func (w *worker) fetchSpec() (SpecResponse, error) {
	var spec SpecResponse
	resp, err := w.client.Get(w.url("/spec"))
	if err != nil {
		return spec, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return spec, fmt.Errorf("campaign: /spec: %s", resp.Status)
	}
	return spec, json.NewDecoder(resp.Body).Decode(&spec)
}

// heartbeatLoop renews all held leases. It derives its cadence from the
// lease TTL (TTL/3) once the first lease sets it.
func (w *worker) heartbeatLoop(stop, dead chan struct{}) {
	defer close(dead)
	for {
		w.mu.Lock()
		interval := w.ttl / 3
		ids := make([]string, 0, len(w.leases))
		for id := range w.leases {
			ids = append(ids, id)
		}
		w.mu.Unlock()
		if interval <= 0 {
			interval = time.Second
		}
		select {
		case <-stop:
			return
		case <-time.After(interval):
		}
		if len(ids) == 0 {
			continue
		}
		var resp HeartbeatResponse
		if _, err := w.postJSON("/heartbeat", &HeartbeatRequest{Worker: w.cfg.Name, Leases: ids}, &resp); err != nil {
			w.cfg.Logf("heartbeat: %v", err)
		}
	}
}

func (w *worker) trackLease(id string, ttl time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.leases[id] = struct{}{}
	if ttl > 0 {
		w.ttl = ttl
	}
}

func (w *worker) dropLease(id string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.leases, id)
}

// slotLoop is one slot's lease→run→submit cycle.
func (w *worker) slotLoop() error {
	consecutiveErrs := 0
	for {
		if w.interrupted() {
			return ErrWorkerInterrupted
		}
		var lease LeaseResponse
		status, err := w.postJSON("/lease", &LeaseRequest{Worker: w.cfg.Name}, &lease)
		switch {
		case err != nil && status == http.StatusGone:
			return nil // campaign complete
		case err != nil:
			consecutiveErrs++
			if consecutiveErrs >= 3 {
				// Coordinator gone? Re-probe its liveness endpoint; if it
				// stays down past the grace, exit with the error.
				if herr := w.waitHealthy(); herr != nil {
					return fmt.Errorf("campaign: coordinator lost: %w (last lease error: %v)", herr, err)
				}
				consecutiveErrs = 0
			}
			w.sleep(w.cfg.Poll)
			continue
		case status == http.StatusNoContent:
			consecutiveErrs = 0
			w.sleep(w.cfg.Poll)
			continue
		}
		consecutiveErrs = 0
		w.trackLease(lease.Lease, time.Duration(lease.TTLMS)*time.Millisecond)
		if err := w.runAndSubmit(lease); err != nil {
			if errors.Is(err, ErrWorkerInterrupted) {
				return err
			}
			w.cfg.Logf("shard %s: %v", lease.Label, err)
			w.sleep(w.cfg.Poll)
		}
	}
}

// runAndSubmit executes one attempt of a leased shard and submits its
// row, or hands the lease back: without penalty when the attempt was
// interrupted, with the failed row when a rerun may cure it (the
// coordinator's queue then retries it or records it). The row is
// byte-identical to what an uninterrupted c3soak puts in the same
// report slot.
func (w *worker) runAndSubmit(lease LeaseResponse) error {
	id, label := lease.Job, lease.Label
	if id < 0 || id >= len(w.camps) || w.camps[id].Label() != label {
		// The queue names the shard in the row if it becomes final.
		failed := litmus.SoakRun{Attempts: lease.Attempt,
			Err: fmt.Sprintf("campaign: worker has no job %d (%s)", id, label)}
		w.release(lease, &failed)
		return errors.New(failed.Err)
	}
	row, kind := w.camps[id].Attempt(w.sweep, lease.Attempt)
	switch kind {
	case litmus.AttemptHandback:
		// No verdict: hand the shard back untouched and shut down.
		w.release(lease, nil)
		return ErrWorkerInterrupted
	case litmus.AttemptRetry:
		w.release(lease, &row)
		w.cfg.Logf("shard %s: attempt %d failed: %s", label, lease.Attempt, row.Err)
		return nil
	}
	defer w.dropLease(lease.Lease)
	var resp map[string]bool
	if _, err := w.postJSON("/result", &ResultRequest{
		Worker: w.cfg.Name,
		Lease:  lease.Lease,
		JobID:  id,
		RowKey: rowKey(label, w.suffix),
		Row:    row,
	}, &resp); err != nil {
		return fmt.Errorf("campaign: submit %s: %w", label, err)
	}
	w.cfg.Logf("shard %s done (%s)", label, RowVerdict(row))
	return nil
}

func (w *worker) release(lease LeaseResponse, failure *litmus.SoakRun) {
	defer w.dropLease(lease.Lease)
	var resp map[string]bool
	if _, err := w.postJSON("/release", &ReleaseRequest{
		Worker: w.cfg.Name, Lease: lease.Lease, Failure: failure,
	}, &resp); err != nil {
		w.cfg.Logf("release %s: %v", lease.Label, err)
	}
}
