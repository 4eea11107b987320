package litmus

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"c3/internal/parallel"
)

// One backoff policy gates every retry, wherever the failed attempt ran:
// a job's n-th failure keeps it off the queue for
// RetryBackoffBase << (n-1), capped at RetryBackoffCap. The gate delays
// only the failing job — the queue hands out the lowest eligible job,
// skipping gated ones — and timing is not part of any row, so the cap
// can be generous without touching determinism.
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
// anyway — at-least-once) is acknowledged and dropped; a deterministic
// job's duplicate row is byte-identical, so which submission wins is
// unobservable.
type jobState uint8

const (
	statePending jobState = iota
	stateLeased
	stateDone
	stateQuarantined
)

// slot is one job's queue entry.
type slot[R any] struct {
	state    jobState
	failures int       // failed attempts handed back + lease expiries
	gate     time.Time // not leasable before this (retry backoff)

	leaseID string
	worker  string
	expiry  time.Time // zero: the lease never expires

	// row is the job's final row once it is terminal: the result (Done)
	// or the row its spent budget left behind (Quarantined).
	row        *R
	lastWorker string
}

// Shape makes the rows a queue writes itself. Its methods run under the
// queue's lock, so they must not call back into the queue.
type Shape[R any] interface {
	// Spent is job i's final row once its attempt-th failure spends the
	// last of its `of` attempts: failed is the failed attempt's row, nil
	// for a lease expiry, and lastWorker held the last lease.
	Spent(i int, failed *R, attempt, of int, lastWorker string) R
	// Unfinished is job i's row when Stop(timeout) cut it short after
	// failures failed attempts.
	Unfinished(i, failures int, timeout time.Duration) R
}

// Queue is the job scheduler: every job of a run — a soak sweep's
// campaigns, a c3check invocation's tests — is leased from one,
// wherever it runs. Drain empties it with in-process slot loops; the
// distributed coordinator (internal/campaign) serves a soak queue over
// HTTP to worker processes. Jobs are indices 0..n-1, and R is the row a
// job ends in. Every transition happens under one lock and the queue
// does no I/O — journaling and transport live with its callers — so the
// state machine is unit-testable with a fake clock.
type Queue[R any] struct {
	mu    sync.Mutex
	shape Shape[R]
	slots []slot[R]
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

	// stopped ends the run early (Stop); stopCh closes with it. timeout
	// is the bound that stopped it (0: an interrupt).
	stopped bool
	stopCh  chan struct{}
	timeout time.Duration

	// resultSeq bumps whenever a job turns terminal; waiters (the
	// coordinator's /results stream) block on cond.
	cond      *sync.Cond
	resultSeq uint64
}

// NewQueue builds the queue for n jobs, whose self-made rows shape
// renders. A lease lasts leaseTTL unless renewed (0: leases never
// expire — in-process slots cannot go silent). Each job may fail
// retries times; the next failure makes it terminal.
func NewQueue[R any](shape Shape[R], n int, leaseTTL time.Duration, retries int, now func() time.Time) *Queue[R] {
	if now == nil {
		now = time.Now
	}
	q := &Queue[R]{
		shape:    shape,
		slots:    make([]slot[R], n),
		now:      now,
		leaseTTL: leaseTTL,
		retries:  retries,
		backoff:  RetryBackoffBase,
		doneCh:   make(chan struct{}),
		stopCh:   make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	if n == 0 {
		q.closeDone()
	}
	return q
}

func (q *Queue[R]) closeDone() {
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
// run is over" (every job terminal, or the queue stopped) from "come
// back later" (backoff gates, everything leased).
func (q *Queue[R]) Lease(worker string) (id int, lease Lease, ok, done bool) {
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
func (q *Queue[R]) Heartbeat(worker string, leaseIDs []string) []string {
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
func (q *Queue[R]) Complete(id int, row R) (first bool, err error) {
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
// its retries spent, its final row is the shape's Spent row, which
// Release returns. found reports whether leaseID was live.
func (q *Queue[R]) Release(leaseID string, failed *R) (final *R, found bool) {
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
func (q *Queue[R]) ExpireStale() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expireLocked()
}

func (q *Queue[R]) expireLocked() int {
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
// final row, the shape's Spent row.
func (q *Queue[R]) failLocked(i int, failed *R) *R {
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
	row := q.shape.Spent(i, failed, s.failures, q.retries+1, s.lastWorker)
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
func (q *Queue[R]) untilGate() (wait time.Duration, ok bool) {
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

// Stop ends the run early: nothing more is leased, idle slots and
// result waiters wake, and Rows renders every unfinished job as the
// shape's Unfinished row for timeout — the bound that ran out, or 0 for
// an interrupt. An attempt already running may still Complete and keep
// its row. Only the first call counts.
func (q *Queue[R]) Stop(timeout time.Duration) {
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
func (q *Queue[R]) Done() <-chan struct{} { return q.doneCh }

// Rows assembles the rows in job order: every terminal job's final row,
// and every unfinished job's Unfinished row — a run cut short by Stop
// leaves some. Every report of a queue's run comes from here.
func (q *Queue[R]) Rows() []R {
	q.mu.Lock()
	defer q.mu.Unlock()
	rows := make([]R, len(q.slots))
	for i := range q.slots {
		if r := q.slots[i].row; r != nil {
			rows[i] = *r
		} else {
			rows[i] = q.shape.Unfinished(i, q.slots[i].failures, q.timeout)
		}
	}
	return rows
}

// finals returns each job's final row, nil while it is unfinished.
func (q *Queue[R]) finals() []*R {
	q.mu.Lock()
	defer q.mu.Unlock()
	rows := make([]*R, len(q.slots))
	for i := range q.slots {
		rows[i] = q.slots[i].row
	}
	return rows
}

// WaitResult blocks until the terminal-transition sequence number passes
// seq, the queue is fully terminal, or it stopped, returning the new
// sequence and whether the run is over. The coordinator's /results
// stream drives on this.
func (q *Queue[R]) WaitResult(seq uint64) (uint64, bool) {
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
func (q *Queue[R]) Snapshot() QueueSnapshot {
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

// AttemptKind says what the queue does with the row of one attempt.
type AttemptKind uint8

const (
	AttemptFinal    AttemptKind = iota // the row is the job's result
	AttemptRetry                       // a failure a rerun may cure: spend a retry
	AttemptHandback                    // interrupted, no verdict: requeue at no cost
)

// Drain runs a queue's jobs in process, the one in-process engine:
// Slots goroutines (0 = GOMAXPROCS) each lease a job, run Attempt n
// (from 1) of it and hand the row back, until the queue has nothing left
// for them. A closed Interrupt stops the queue, and so does Timeout (0 =
// none) once it runs out; attempts already running finish on their own.
// Started and Done, when set, see each job once, concurrently from the
// slots: Started when its first attempt starts, Done when its row is
// final. Jobs born terminal are reported before any slot starts, and
// jobs a stop cut short after the slots exit.
type Drain[R any] struct {
	Slots     int
	Attempt   func(i, n int) (R, AttemptKind)
	Interrupt <-chan struct{}
	Timeout   time.Duration
	Started   func(i int)
	Done      func(i int, row R)

	q        *Queue[R]
	deadline time.Time // Timeout's (zero: none)
	// started marks the jobs Started has seen (a job is held by one
	// slot at a time; the queue's lock orders the hand-off).
	started []bool
}

// Run drains q and returns its rows (Queue.Rows).
func (d Drain[R]) Run(q *Queue[R]) []R {
	d.q, d.started = q, make([]bool, len(q.slots))
	if d.Timeout > 0 {
		d.deadline = time.Now().Add(d.Timeout)
	}
	for i, row := range q.finals() {
		if row != nil {
			d.report(i, *row)
		}
	}

	var wg sync.WaitGroup
	for range min(parallel.Workers(d.Slots), len(q.slots)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.slot()
		}()
	}
	wg.Wait()

	// The slots reported every job they finished; the rest were cut
	// short by an interrupt or the bound.
	finals, rows := q.finals(), q.Rows()
	for i, row := range rows {
		if finals[i] == nil {
			d.report(i, row)
		}
	}
	return rows
}

// slot is one in-process lease loop: lease a job, run one attempt, hand
// the result to the queue, repeat until the queue has nothing left for
// it. A lease that never expires names no worker in any row.
func (d *Drain[R]) slot() {
	for {
		select {
		case <-d.Interrupt:
			d.q.Stop(0)
		default:
			if !d.deadline.IsZero() && !time.Now().Before(d.deadline) {
				d.q.Stop(d.Timeout)
			}
		}
		id, lease, ok, done := d.q.Lease("in-process")
		if done {
			return
		}
		if !ok {
			if !d.idle() {
				return
			}
			continue
		}
		d.start(id)
		row, kind := d.Attempt(id, lease.Attempt)
		switch kind {
		case AttemptHandback:
			d.q.Release(lease.ID, nil)
		case AttemptRetry:
			if final, _ := d.q.Release(lease.ID, &row); final != nil {
				d.report(id, *final)
			}
		default:
			d.q.Complete(id, row) //nolint:errcheck // id came from Lease
			d.report(id, row)
		}
	}
}

// idle parks a slot that found nothing leasable until the earliest
// backoff gate among pending jobs opens — never on a poll interval —
// or the drain is interrupted, stopped, or past its bound. It reports
// false, and the slot exits, when no job is pending: whatever is left
// is running on other slots, which retry their own failures.
func (d *Drain[R]) idle() bool {
	wait, ok := d.q.untilGate()
	if !ok {
		return false
	}
	if !d.deadline.IsZero() {
		wait = min(wait, time.Until(d.deadline))
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-d.Interrupt:
	case <-d.q.stopCh:
	}
	return true
}

// start hands job i to Started, once.
func (d *Drain[R]) start(i int) {
	if !d.started[i] && d.Started != nil {
		d.Started(i)
	}
	d.started[i] = true
}

// report hands job i's final row to Done, after Started.
func (d *Drain[R]) report(i int, row R) {
	d.start(i)
	if d.Done != nil {
		d.Done(i, row)
	}
}
