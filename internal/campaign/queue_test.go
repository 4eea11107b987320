package campaign

import (
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/litmus"
)

// fakeClock is a mutable clock for driving the lease state machine
// deterministically. The queue lives in internal/litmus, beside RunSoak,
// which drains it in process; these tests drive it the way the
// coordinator does.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testJobs(n int) []litmus.Campaign {
	jobs := make([]litmus.Campaign, n)
	for i := range jobs {
		jobs[i] = litmus.Campaign{
			Test: litmus.Test{Name: "MP"},
			Plan: litmus.NamedPlan{Name: "light"},
			Seed: int64(i + 1),
		}
	}
	return jobs
}

func doneRow(j litmus.Campaign) litmus.SoakRun {
	return litmus.SoakRun{Test: j.Test.Name, Plan: j.Plan.Name, Seed: j.Seed, Iters: 4}
}

func TestQueueLeaseOrder(t *testing.T) {
	clk := newFakeClock()
	q := litmus.NewSoakQueue(testJobs(3), nil, time.Minute, 3, clk.Now)

	for want := 0; want < 3; want++ {
		id, lease, ok, done := q.Lease("w1")
		if !ok || done {
			t.Fatalf("lease %d: ok=%v done=%v", want, ok, done)
		}
		if id != want {
			t.Fatalf("lease %d: got job %d (leases must hand out the lowest eligible ID)", want, id)
		}
		if lease.ID == "" || lease.TTL != time.Minute {
			t.Fatalf("lease %d: bad lease %+v", want, lease)
		}
	}
	// Everything in flight: not leasable, but not done either.
	if _, _, ok, done := q.Lease("w1"); ok || done {
		t.Fatalf("all leased: ok=%v done=%v, want false,false", ok, done)
	}
}

func TestQueueExpiryRequeueAndBackoff(t *testing.T) {
	clk := newFakeClock()
	ttl := 10 * time.Second
	q := litmus.NewSoakQueue(testJobs(2), nil, ttl, 3, clk.Now)

	id0, _, ok, _ := q.Lease("w1")
	if !ok || id0 != 0 {
		t.Fatalf("initial lease: ok=%v job=%d", ok, id0)
	}

	// Expire the lease: the shard requeues under a backoff gate, so the
	// next lease skips it and grants job 1 instead.
	clk.Advance(ttl + time.Second)
	if n := q.ExpireStale(); n != 1 {
		t.Fatalf("ExpireStale = %d, want 1", n)
	}
	id, _, ok, _ := q.Lease("w2")
	if !ok || id != 1 {
		t.Fatalf("post-expiry lease: ok=%v job %d, want job 1 (job 0 is backoff-gated)", ok, id)
	}

	// Past the first-failure gate (250ms) job 0 is leasable again.
	clk.Advance(litmus.RetryBackoffBase + time.Millisecond)
	id, _, ok, _ = q.Lease("w2")
	if !ok || id != 0 {
		t.Fatalf("post-backoff lease: ok=%v job %d, want job 0", ok, id)
	}

	snap := q.Snapshot()
	if snap.Expiries != 1 || snap.Requeues != 1 {
		t.Fatalf("snapshot %+v, want 1 expiry and 1 requeue", snap)
	}
}

func TestQueueQuarantine(t *testing.T) {
	clk := newFakeClock()
	ttl := 5 * time.Second
	retries := 2
	q := litmus.NewSoakQueue(testJobs(1), nil, ttl, retries, clk.Now)

	// Burn through the failure budget: each expiry requeues until
	// failures exceed retries, then the shard quarantines.
	for i := 0; i < retries+1; i++ {
		clk.Advance(litmus.RetryBackoffCap + time.Second) // past any gate
		id, _, ok, done := q.Lease("flaky")
		if !ok || done || id != 0 {
			t.Fatalf("attempt %d: ok=%v done=%v job=%d", i, ok, done, id)
		}
		clk.Advance(ttl + time.Second)
		q.ExpireStale()
	}

	select {
	case <-q.Done():
	default:
		t.Fatal("queue not done after quarantine of its only shard")
	}
	if _, _, ok, done := q.Lease("flaky"); ok || !done {
		t.Fatalf("lease after quarantine: ok=%v done=%v, want false,true", ok, done)
	}

	rows := q.Rows()
	if len(rows) != 1 {
		t.Fatalf("Rows() = %d rows, want 1", len(rows))
	}
	if !strings.Contains(rows[0].Err, "quarantined: 3 lease failures") ||
		!strings.Contains(rows[0].Err, `"flaky"`) {
		t.Fatalf("quarantine row err = %q, want lease-failure count and last worker", rows[0].Err)
	}
	if snap := q.Snapshot(); snap.Quarantined != 1 {
		t.Fatalf("snapshot %+v, want Quarantined=1", snap)
	}
}

func TestQueueHeartbeatRenewal(t *testing.T) {
	clk := newFakeClock()
	ttl := 10 * time.Second
	q := litmus.NewSoakQueue(testJobs(1), nil, ttl, 3, clk.Now)

	_, lease, ok, _ := q.Lease("w1")
	if !ok {
		t.Fatal("lease failed")
	}

	// Heartbeats push the expiry out indefinitely.
	for i := 0; i < 5; i++ {
		clk.Advance(ttl - time.Second)
		valid := q.Heartbeat("w1", []string{lease.ID})
		if len(valid) != 1 || valid[0] != lease.ID {
			t.Fatalf("heartbeat %d: valid=%v, want [%s]", i, valid, lease.ID)
		}
	}
	if n := q.ExpireStale(); n != 0 {
		t.Fatalf("ExpireStale after heartbeats = %d, want 0", n)
	}

	// A heartbeat from the wrong worker renews nothing.
	if valid := q.Heartbeat("imposter", []string{lease.ID}); len(valid) != 0 {
		t.Fatalf("imposter heartbeat renewed %v", valid)
	}

	// Silence past the TTL expires the lease; the next heartbeat reports
	// it gone.
	clk.Advance(ttl + time.Second)
	if valid := q.Heartbeat("w1", []string{lease.ID}); len(valid) != 0 {
		t.Fatalf("heartbeat after expiry: valid=%v, want none", valid)
	}
}

func TestQueueCompleteIdempotentAndLate(t *testing.T) {
	clk := newFakeClock()
	ttl := 5 * time.Second
	jobs := testJobs(2)
	q := litmus.NewSoakQueue(jobs, nil, ttl, 3, clk.Now)

	id, _, _, _ := q.Lease("w1")
	first, err := q.Complete(id, doneRow(jobs[id]))
	if err != nil || !first {
		t.Fatalf("Complete = %v, %v; want first=true", first, err)
	}
	// Duplicate submission (at-least-once): acknowledged, not first.
	first, err = q.Complete(id, doneRow(jobs[id]))
	if err != nil || first {
		t.Fatalf("duplicate Complete = %v, %v; want first=false", first, err)
	}

	// Late result: lease job 1, let it expire, then the original worker
	// finishes anyway. The result is accepted — whoever finishes,
	// finishes.
	id1, _, _, _ := q.Lease("w1")
	clk.Advance(ttl + time.Second)
	q.ExpireStale()
	first, err = q.Complete(id1, doneRow(jobs[id1]))
	if err != nil || !first {
		t.Fatalf("late Complete = %v, %v; want first=true", first, err)
	}

	select {
	case <-q.Done():
	default:
		t.Fatal("queue not done after all shards completed")
	}
	if _, err := q.Complete(99, litmus.SoakRun{}); err == nil {
		t.Fatal("Complete(unknown job) did not error")
	}
}

func TestQueueCompleteUnquarantines(t *testing.T) {
	clk := newFakeClock()
	ttl := 5 * time.Second
	q := litmus.NewSoakQueue(testJobs(1), nil, ttl, 1, clk.Now)

	for i := 0; i < 2; i++ {
		clk.Advance(litmus.RetryBackoffCap + time.Second)
		if _, _, ok, _ := q.Lease("w1"); !ok {
			t.Fatalf("attempt %d: lease failed", i)
		}
		clk.Advance(ttl + time.Second)
		q.ExpireStale()
	}
	if snap := q.Snapshot(); snap.Quarantined != 1 {
		t.Fatalf("snapshot %+v, want Quarantined=1", snap)
	}

	// The slow worker finishes after all: its row replaces the
	// quarantine error (the work did complete).
	row := doneRow(testJobs(1)[0])
	if first, err := q.Complete(0, row); err != nil || !first {
		t.Fatalf("Complete on quarantined = %v, %v; want first=true", first, err)
	}
	rows := q.Rows()
	if rows[0].Err != "" || rows[0].Iters != row.Iters {
		t.Fatalf("row after un-quarantine = %+v, want the submitted row", rows[0])
	}
	snap := q.Snapshot()
	if snap.Done != 1 || snap.Quarantined != 0 {
		t.Fatalf("snapshot %+v, want Done=1 Quarantined=0", snap)
	}
}

func TestQueueReleasePenalty(t *testing.T) {
	clk := newFakeClock()
	q := litmus.NewSoakQueue(testJobs(1), nil, time.Minute, 3, clk.Now)

	// Graceful release: immediate requeue, no gate, no failure count.
	_, lease, _, _ := q.Lease("w1")
	if _, found := q.Release(lease.ID, nil); !found {
		t.Fatal("Release(no penalty) did not find the lease")
	}
	id, lease, ok, _ := q.Lease("w1")
	if !ok || id != 0 {
		t.Fatalf("lease after graceful release: ok=%v job=%d, want immediate regrant", ok, id)
	}

	// Penalty release: counts toward quarantine and gates the shard.
	failed := litmus.SoakRun{Test: "MP", Plan: "light", Seed: 1, TimedOut: true, Err: "task deadline exceeded"}
	if _, found := q.Release(lease.ID, &failed); !found {
		t.Fatal("Release(penalty) did not find the lease")
	}
	if _, _, ok, done := q.Lease("w1"); ok || done {
		t.Fatalf("lease during penalty backoff: ok=%v done=%v, want gated", ok, done)
	}
	clk.Advance(litmus.RetryBackoffBase + time.Millisecond)
	if _, _, ok, _ := q.Lease("w1"); !ok {
		t.Fatal("lease after penalty backoff elapsed: want regrant")
	}

	// Unknown lease: not found.
	if _, found := q.Release("L999", nil); found {
		t.Fatal("Release(unknown lease) reported found")
	}
}

func TestQueueSeededCompleted(t *testing.T) {
	jobs := testJobs(2)
	completed := map[string]litmus.SoakRun{
		jobs[0].Label(): doneRow(jobs[0]),
	}
	clk := newFakeClock()
	q := litmus.NewSoakQueue(jobs, completed, time.Minute, 3, clk.Now)

	// The replayed shard is born done and never leased.
	id, _, ok, _ := q.Lease("w1")
	if !ok || id != 1 {
		t.Fatalf("lease from seeded queue: ok=%v job %d, want job 1", ok, id)
	}
	rows := q.Rows()
	if !rows[0].Resumed {
		t.Fatalf("seeded row not marked Resumed: %+v", rows[0])
	}

	if _, err := q.Complete(1, doneRow(jobs[1])); err != nil {
		t.Fatal(err)
	}
	select {
	case <-q.Done():
	default:
		t.Fatal("queue not done")
	}

	// A fully-seeded queue is born done.
	all := map[string]litmus.SoakRun{
		jobs[0].Label(): doneRow(jobs[0]),
		jobs[1].Label(): doneRow(jobs[1]),
	}
	q2 := litmus.NewSoakQueue(jobs, all, time.Minute, 3, clk.Now)
	select {
	case <-q2.Done():
	default:
		t.Fatal("fully-seeded queue not done at birth")
	}
}

func TestQueueRowsInterrupted(t *testing.T) {
	clk := newFakeClock()
	jobs := testJobs(2)
	q := litmus.NewSoakQueue(jobs, nil, time.Minute, 3, clk.Now)
	if _, err := q.Complete(0, doneRow(jobs[0])); err != nil {
		t.Fatal(err)
	}
	rows := q.Rows() // campaign cut short: shard 1 never ran
	if rows[0].Interrupted || rows[1].Err == "" || !rows[1].Interrupted {
		t.Fatalf("partial rows = %+v, want row 1 interrupted", rows)
	}
}

func TestQueueWaitResultShutdown(t *testing.T) {
	clk := newFakeClock()
	q := litmus.NewSoakQueue(testJobs(1), nil, time.Minute, 3, clk.Now)
	released := make(chan struct{})
	go func() {
		defer close(released)
		q.WaitResult(0) // would block forever without Stop
	}()
	q.Stop(0)
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitResult did not unblock on Shutdown")
	}
}
