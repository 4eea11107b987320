package litmus

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// One backoff policy gates every retry, wherever the failed attempt ran:
// a campaign's n-th failure keeps it off the queue for
// RetryBackoffBase << (n-1), capped at RetryBackoffCap. The gate delays
// only the failing campaign — the queue hands out the lowest eligible
// job, skipping gated ones — and timing is not part of any row, so the
// cap can be generous without touching determinism.
const (
	RetryBackoffBase = 250 * time.Millisecond
	RetryBackoffCap  = 30 * time.Second
)

// jobState is the lease state machine:
//
//	Pending ──lease──▶ Leased ──result──▶ Done            (terminal)
//	   ▲                  │
//	   │  failure/release │ failures ≤ retries: backoff gate
//	   └──────────────────┤
//	                      │ failures > retries
//	                      ▼
//	                 Quarantined                          (terminal)
//
// A failure is a failed attempt handed back (a task-deadline cut, a
// panic, a worker-side error) or a lease that expired; all of them spend
// the one retry budget. A graceful release (an interrupted attempt)
// requeues at once and costs nothing. Done is absorbing: a late result
// for an already-Done job (the lease expired but the worker finished
// anyway — at-least-once) is acknowledged and dropped; seed determinism
// makes the duplicate row byte-identical, so which submission wins is
// unobservable.
type jobState uint8

const (
	statePending jobState = iota
	stateLeased
	stateDone
	stateQuarantined
)

// slot is one job's queue entry.
type slot struct {
	state    jobState
	failures int       // failed attempts handed back + lease expiries
	gate     time.Time // not leasable before this (retry backoff)

	leaseID string
	worker  string
	expiry  time.Time // zero: the lease never expires

	// row is the job's final row once it is terminal: the result (Done)
	// or the row its spent budget left behind (Quarantined).
	row        *SoakRun
	lastWorker string
}

// Queue is the soak scheduler: every campaign of a sweep is a job
// leased from one, wherever it runs. RunSoak drains it with in-process
// slot loops; the distributed coordinator (internal/campaign) serves
// the same queue over HTTP to worker processes. Every transition
// happens under one lock and the queue does no I/O — journaling and
// transport live with its callers — so the state machine is
// unit-testable with a fake clock.
type Queue struct {
	mu    sync.Mutex
	jobs  []Campaign
	slots []slot
	now   func() time.Time

	leaseTTL time.Duration // 0: leases never expire
	retries  int
	backoff  time.Duration // retry backoff base

	leaseSeq  uint64
	doneCount int // Done + Quarantined
	expiries  uint64
	requeues  uint64

	// doneCh closes when every job is terminal.
	doneCh    chan struct{}
	closeOnce sync.Once

	// stopped ends the campaign early (Stop); stopCh closes with it.
	// timeout is the sweep bound that stopped it (0: an interrupt).
	stopped bool
	stopCh  chan struct{}
	timeout time.Duration

	// resultSeq bumps whenever a job turns terminal; waiters (the
	// coordinator's /results stream) block on cond.
	cond      *sync.Cond
	resultSeq uint64
}

// NewQueue builds the queue for jobs. completed seeds rows checkpointed
// by an earlier run (keyed by job label); those jobs are born Done,
// marked Resumed, and never leased. A lease lasts leaseTTL unless
// renewed (0: leases never expire — in-process slots cannot go silent).
// Each job may fail retries times; the next failure makes it terminal.
func NewQueue(jobs []Campaign, completed map[string]SoakRun, leaseTTL time.Duration, retries int, now func() time.Time) *Queue {
	if now == nil {
		now = time.Now
	}
	q := &Queue{
		jobs:     jobs,
		slots:    make([]slot, len(jobs)),
		now:      now,
		leaseTTL: leaseTTL,
		retries:  retries,
		backoff:  RetryBackoffBase,
		doneCh:   make(chan struct{}),
		stopCh:   make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	for i, j := range jobs {
		if row, ok := completed[j.Label()]; ok {
			row.Resumed = true
			q.slots[i].state = stateDone
			q.slots[i].row = &row
			q.doneCount++
		}
	}
	if q.doneCount == len(q.slots) {
		q.closeDone()
	}
	return q
}

func (q *Queue) closeDone() {
	q.closeOnce.Do(func() { close(q.doneCh) })
	q.cond.Broadcast()
}

// Lease is a claim on one job. Renew it via Heartbeat before TTL
// elapses or the job is requeued (TTL 0: it never expires). Attempt
// numbers the execution the lease is for, from 1.
type Lease struct {
	ID      string
	TTL     time.Duration
	Attempt int
}

// Lease hands worker the lowest-ID eligible job under a fresh lease, or
// reports ok false when nothing is leasable right now. done tells "the
// campaign is over" (every job terminal, or the queue stopped) from
// "come back later" (backoff gates, everything leased).
func (q *Queue) Lease(worker string) (id int, lease Lease, ok, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return 0, Lease{}, false, true
	}
	q.expireLocked()
	now := q.now()
	for i := range q.slots {
		s := &q.slots[i]
		if s.state != statePending || now.Before(s.gate) {
			continue
		}
		q.leaseSeq++
		s.state = stateLeased
		s.leaseID = "L" + strconv.FormatUint(q.leaseSeq, 10)
		s.worker = worker
		s.expiry = time.Time{}
		if q.leaseTTL > 0 {
			s.expiry = now.Add(q.leaseTTL)
		}
		return i, Lease{ID: s.leaseID, TTL: q.leaseTTL, Attempt: s.failures + 1}, true, false
	}
	return 0, Lease{}, false, q.doneCount == len(q.slots)
}

// Heartbeat renews worker's listed leases and returns the IDs still
// valid. A lease that already expired (and was requeued, possibly to
// another worker) is not resurrected — its absence from the reply tells
// the worker its result may be redundant, though submitting it anyway
// is harmless.
func (q *Queue) Heartbeat(worker string, leaseIDs []string) []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	now := q.now()
	var valid []string
	for _, id := range leaseIDs {
		for i := range q.slots {
			s := &q.slots[i]
			if s.state == stateLeased && s.leaseID == id && s.worker == worker {
				if q.leaseTTL > 0 {
					s.expiry = now.Add(q.leaseTTL)
				}
				valid = append(valid, id)
				break
			}
		}
	}
	return valid
}

// Complete records a job's result row. It reports whether this was the
// first completion (callers journal exactly the first). Late and
// duplicate submissions are acknowledged and dropped; a result for a
// quarantined job un-quarantines it (the work did finish — the row is
// better than an error). The lease need not still be valid:
// at-least-once means "whoever finishes, finishes". Results still land
// after Stop.
func (q *Queue) Complete(id int, row SoakRun) (first bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if id < 0 || id >= len(q.slots) {
		return false, fmt.Errorf("litmus: result for unknown job %d", id)
	}
	s := &q.slots[id]
	if s.state == stateDone {
		return false, nil
	}
	if s.state != stateQuarantined {
		// Pending or Leased count toward doneCount now; Quarantined
		// already did.
		q.doneCount++
	}
	s.state = stateDone
	s.row = &row
	s.leaseID, s.worker = "", ""
	q.resultSeq++
	q.cond.Broadcast()
	if q.doneCount == len(q.slots) {
		q.closeDone()
	}
	return true, nil
}

// Release hands a leased job back before its lease runs out. With
// failed nil it is a graceful hand-back — the attempt was interrupted —
// and the job requeues at once, costing nothing. Otherwise failed is
// the failed attempt's row (a task-deadline cut, a panic, a worker-side
// error): the job spends one retry and requeues under backoff or, with
// its retries spent, that row becomes its final row, which Release
// returns. found reports whether leaseID was live.
func (q *Queue) Release(leaseID string, failed *SoakRun) (final *SoakRun, found bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.slots {
		s := &q.slots[i]
		if s.state != stateLeased || s.leaseID != leaseID {
			continue
		}
		if failed != nil {
			return q.failLocked(i, failed), true
		}
		s.state = statePending
		s.gate = time.Time{}
		s.leaseID, s.worker = "", ""
		q.requeues++
		return nil, true
	}
	return nil, false
}

// ExpireStale requeues every lease past its deadline (driven by the
// coordinator's janitor ticker; also run lazily inside Lease and
// Heartbeat so a quiet queue still makes progress).
func (q *Queue) ExpireStale() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expireLocked()
}

func (q *Queue) expireLocked() int {
	now := q.now()
	n := 0
	for i := range q.slots {
		s := &q.slots[i]
		if s.state == stateLeased && !s.expiry.IsZero() && now.After(s.expiry) {
			q.expiries++
			q.failLocked(i, nil)
			n++
		}
	}
	return n
}

// failLocked spends one of job i's retries on a failure — failed is the
// failed attempt's row, nil for a lease expiry — and requeues the job
// under backoff, or, past the budget, quarantines it and returns its
// final row. A spent budget ends in the last failure's row: a TIMEOUT
// row naming the attempt count, the panic's error row, or for a lease
// expiry a loud "quarantined" error row.
func (q *Queue) failLocked(i int, failed *SoakRun) *SoakRun {
	s := &q.slots[i]
	s.failures++
	s.lastWorker = s.worker
	s.leaseID, s.worker = "", ""
	if s.failures <= q.retries {
		backoff := q.backoff << (s.failures - 1)
		if backoff > RetryBackoffCap {
			backoff = RetryBackoffCap
		}
		s.state = statePending
		s.gate = q.now().Add(backoff)
		q.requeues++
		return nil
	}
	row := SoakRun{Attempts: s.failures,
		Err: fmt.Sprintf("quarantined: %d lease failures (last worker %q)", s.failures, s.lastWorker)}
	if failed != nil {
		row = *failed
		if row.TimedOut {
			row.Err = fmt.Sprintf("%s (attempt %d of %d)", row.Err, s.failures, q.retries+1)
		}
	}
	c := q.jobs[i]
	row.Test, row.Plan, row.Seed = c.Test.Name, c.Plan.Name, c.Seed
	s.state = stateQuarantined
	s.row = &row
	q.doneCount++
	q.resultSeq++
	q.cond.Broadcast()
	if q.doneCount == len(q.slots) {
		q.closeDone()
	}
	return &row
}

// untilGate reports how long until the earliest backoff gate among
// pending jobs opens; ok is false when no job is pending (everything
// unfinished is leased) — an idle slot then has nothing to wait for.
func (q *Queue) untilGate() (wait time.Duration, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var gate time.Time
	for i := range q.slots {
		s := &q.slots[i]
		if s.state == statePending && (!ok || s.gate.Before(gate)) {
			gate, ok = s.gate, true
		}
	}
	return gate.Sub(q.now()), ok
}

// Stop ends the campaign early: nothing more is leased, idle slots and
// result waiters wake, and Rows renders every unfinished job as an
// INTERRUPTED row — or, when timeout is non-zero, as a TIMEOUT row
// naming the sweep bound that ran out. An attempt already running may
// still Complete and keep its row. Only the first call counts.
func (q *Queue) Stop(timeout time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return
	}
	q.stopped, q.timeout = true, timeout
	close(q.stopCh)
	q.cond.Broadcast()
}

// Done reports the channel closed when every job is terminal.
func (q *Queue) Done() <-chan struct{} { return q.doneCh }

// Rows assembles the report rows in canonical job order: every
// terminal job's final row, and — when the campaign was cut short —
// every unfinished job as an INTERRUPTED row, or a TIMEOUT row if a
// sweep bound stopped the queue. Both tools' reports come from here.
func (q *Queue) Rows() []SoakRun {
	q.mu.Lock()
	defer q.mu.Unlock()
	rows := make([]SoakRun, len(q.slots))
	for i := range q.slots {
		if r := q.slots[i].row; r != nil {
			rows[i] = *r
			continue
		}
		c := q.jobs[i]
		row := SoakRun{Test: c.Test.Name, Plan: c.Plan.Name, Seed: c.Seed}
		if q.timeout > 0 {
			row.TimedOut = true
			row.Err = fmt.Sprintf("timeout: sweep exceeded %v before campaign completed", q.timeout)
		} else {
			row.Interrupted = true
			row.Err = "interrupted before campaign completed"
		}
		rows[i] = row
	}
	return rows
}

// WaitResult blocks until the terminal-transition sequence number passes
// seq, the queue is fully terminal, or it stopped, returning the new
// sequence and whether the campaign is over. The coordinator's /results
// stream drives on this.
func (q *Queue) WaitResult(seq uint64) (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.resultSeq <= seq && q.doneCount != len(q.slots) && !q.stopped {
		q.cond.Wait()
	}
	return q.resultSeq, q.doneCount == len(q.slots) || q.stopped
}

// QueueSnapshot is the wire form of queue state for /statusz.
type QueueSnapshot struct {
	Total       int    `json:"total"`
	Pending     int    `json:"pending"`
	Leased      int    `json:"leased"`
	Done        int    `json:"done"`
	Quarantined int    `json:"quarantined"`
	Expiries    uint64 `json:"lease_expiries"`
	Requeues    uint64 `json:"requeues"`
}

// Snapshot captures current queue counts.
func (q *Queue) Snapshot() QueueSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	snap := QueueSnapshot{Total: len(q.slots), Expiries: q.expiries, Requeues: q.requeues}
	for i := range q.slots {
		switch q.slots[i].state {
		case statePending:
			snap.Pending++
		case stateLeased:
			snap.Leased++
		case stateDone:
			snap.Done++
		case stateQuarantined:
			snap.Quarantined++
		}
	}
	return snap
}
