package litmus

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/faults"
)

// resilienceSoakConfig is the small, fast sweep shared by the resilience
// tests: 2 tests x 1 plan x 2 seeds = 4 campaigns.
func resilienceSoakConfig() SoakConfig {
	return SoakConfig{
		Tests: []string{"MP", "SB"},
		Plans: []NamedPlan{
			{Name: "light", Plan: faults.Plan{Rates: faults.Rates{Drop: 0.01, Dup: 0.01}}},
		},
		Seeds: []int64{1, 2},
		Iters: 4,
	}
}

// TestSoakRetryDeterminism pins the retry contract: a campaign that times
// out once and succeeds on retry produces the same report bytes as a
// first-try success, at any worker count. Every attempt is a fresh,
// seed-determined campaign, so retries cannot leak state into the row.
func TestSoakRetryDeterminism(t *testing.T) {
	base, err := RunSoak(resilienceSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := base.Render()

	for _, workers := range []int{1, 8} {
		cfg := resilienceSoakConfig()
		cfg.Workers = workers
		cfg.Retries = 2
		cfg.retryBackoff = time.Millisecond
		// Every campaign's first attempt is cut by a (simulated) deadline;
		// the second attempt runs clean.
		cfg.failAttempt = func(label string, attempt int) error {
			if attempt == 1 {
				return ErrTaskDeadline
			}
			return nil
		}
		rep, err := RunSoak(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rep.Render(); got != want {
			t.Fatalf("workers=%d: retried report differs from first-try report:\n--- first-try ---\n%s--- retried ---\n%s",
				workers, want, got)
		}
		for _, r := range rep.Runs {
			if r.Attempts != 2 {
				t.Fatalf("row %s/%s/seed%d executed %d attempts, want 2", r.Test, r.Plan, r.Seed, r.Attempts)
			}
		}
	}
}

// TestSoakRetryExhaustion: once Retries attempts are burned the row is
// recorded as TIMEOUT — the sweep completes, OK() fails, verdict is
// "timeout".
func TestSoakRetryExhaustion(t *testing.T) {
	cfg := resilienceSoakConfig()
	cfg.Retries = 1
	cfg.retryBackoff = time.Millisecond
	cfg.failAttempt = func(label string, attempt int) error { return ErrTaskDeadline }
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if !r.TimedOut || r.Attempts != 2 {
			t.Fatalf("row %s/%s/seed%d: TimedOut=%v Attempts=%d, want timeout after 2 attempts",
				r.Test, r.Plan, r.Seed, r.TimedOut, r.Attempts)
		}
	}
	if rep.OK() {
		t.Fatal("OK() true with every row timed out")
	}
	if v := rep.Verdict(); v != "timeout" {
		t.Fatalf("verdict = %q, want timeout", v)
	}
	if out := rep.Render(); !strings.Contains(out, "TIMEOUT") {
		t.Fatalf("render missing TIMEOUT status:\n%s", out)
	}
}

// TestSoakPanicRetry: a panicking attempt is retryable, just like a
// deadline cut — transient conditions deserve a second try before the
// row goes down as an error.
func TestSoakPanicRetry(t *testing.T) {
	base, err := RunSoak(resilienceSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := resilienceSoakConfig()
	cfg.Retries = 1
	cfg.retryBackoff = time.Millisecond
	cfg.failAttempt = func(label string, attempt int) error {
		if attempt == 1 && label == "MP/light/seed1" {
			return errCampaignPanic
		}
		return nil
	}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Render(), base.Render(); got != want {
		t.Fatalf("panic-retried report differs:\n--- base ---\n%s--- retried ---\n%s", want, got)
	}
}

// TestSoakTaskTimeout: a real (not injected) per-attempt deadline in the
// past cuts every campaign via the runner's poll, and with no retries
// the rows surface as TIMEOUT.
func TestSoakTaskTimeout(t *testing.T) {
	cfg := resilienceSoakConfig()
	cfg.TaskTimeout = time.Nanosecond
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if !r.TimedOut {
			t.Fatalf("row %s/%s/seed%d not timed out under a 1ns attempt budget: %+v",
				r.Test, r.Plan, r.Seed, r)
		}
		if !strings.Contains(r.Err, "deadline") {
			t.Fatalf("row error does not name the deadline: %q", r.Err)
		}
	}
	if v := rep.Verdict(); v != "timeout" {
		t.Fatalf("verdict = %q, want timeout", v)
	}
}

// TestSoakResumeSkipsCompleted pins the checkpoint/resume contract: rows
// checkpointed by a previous run (JSON round-tripped, as the ledger
// stores them) are injected verbatim — no campaign executes — and the
// resumed report renders byte-identical to the uninterrupted one.
func TestSoakResumeSkipsCompleted(t *testing.T) {
	base, err := RunSoak(resilienceSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	completed := make(map[string]SoakRun, len(base.Runs))
	for _, r := range base.Runs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var rt SoakRun
		if err := json.Unmarshal(raw, &rt); err != nil {
			t.Fatal(err)
		}
		completed[RowLabel(r.Test, r.Plan, r.Seed)] = rt
	}

	cfg := resilienceSoakConfig()
	cfg.Completed = completed
	var mu sync.Mutex
	var executed []string
	cfg.failAttempt = func(label string, attempt int) error {
		mu.Lock()
		executed = append(executed, label)
		mu.Unlock()
		return nil
	}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 0 {
		t.Fatalf("resume re-executed checkpointed campaigns: %v", executed)
	}
	for _, r := range rep.Runs {
		if !r.Resumed {
			t.Fatalf("row %s/%s/seed%d not marked Resumed", r.Test, r.Plan, r.Seed)
		}
	}
	if got, want := rep.Render(), base.Render(); got != want {
		t.Fatalf("resumed report differs from uninterrupted report:\n--- uninterrupted ---\n%s--- resumed ---\n%s",
			want, got)
	}

	// Partial resume: only half the rows checkpointed — the rest execute,
	// and the merged report still matches.
	partial := make(map[string]SoakRun)
	for label, r := range completed {
		if r.Test == "MP" {
			partial[label] = r
		}
	}
	cfg2 := resilienceSoakConfig()
	cfg2.Completed = partial
	rep2, err := RunSoak(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep2.Render(), base.Render(); got != want {
		t.Fatalf("partially resumed report differs:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want, got)
	}
	resumed := 0
	for _, r := range rep2.Runs {
		if r.Resumed {
			resumed++
		}
	}
	if resumed != len(partial) {
		t.Fatalf("%d rows marked Resumed, want %d", resumed, len(partial))
	}
}

// TestSoakInterrupt: a closed Interrupt channel turns every not-yet-run
// campaign into an INTERRUPTED row instead of executing it; the report
// verdict is "interrupted" and Interrupted() is true.
func TestSoakInterrupt(t *testing.T) {
	cfg := resilienceSoakConfig()
	stop := make(chan struct{})
	close(stop)
	cfg.Interrupt = stop
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 4 {
		t.Fatalf("%d rows, want 4 (interrupted sweeps still report every row)", len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if !r.Interrupted {
			t.Fatalf("row %s/%s/seed%d executed despite pre-closed interrupt: %+v",
				r.Test, r.Plan, r.Seed, r)
		}
	}
	if !rep.Interrupted() {
		t.Fatal("report.Interrupted() false")
	}
	if v := rep.Verdict(); v != "interrupted" {
		t.Fatalf("verdict = %q, want interrupted", v)
	}
	out := rep.Render()
	if !strings.Contains(out, "INTERRUPTED") || !strings.Contains(out, "-resume") {
		t.Fatalf("render missing interrupt guidance:\n%s", out)
	}
}

// TestSoakInterruptPrecedence: a forbidden-outcome row outranks
// interrupted rows in the verdict — shutdown must never mask a violation
// that was already found.
func TestSoakInterruptPrecedence(t *testing.T) {
	rep := &SoakReport{Runs: []SoakRun{
		{Test: "MP", Plan: "light", Seed: 1, Iters: 4, Forbidden: 1},
		{Test: "SB", Plan: "light", Seed: 1, Interrupted: true, Err: "interrupted"},
	}}
	if v := rep.Verdict(); v != "fail" {
		t.Fatalf("verdict = %q, want fail (violation outranks interrupt)", v)
	}
	rep2 := &SoakReport{Runs: []SoakRun{
		{Test: "MP", Plan: "light", Seed: 1, TimedOut: true, Err: "deadline"},
		{Test: "SB", Plan: "light", Seed: 1, Interrupted: true, Err: "interrupted"},
	}}
	if v := rep2.Verdict(); v != "interrupted" {
		t.Fatalf("verdict = %q, want interrupted (interrupt outranks timeout)", v)
	}
}

// TestSoakFailFast: a failing campaign never fails fast — the failure
// isolates as its own row and every sibling still reports.
func TestSoakFailFast(t *testing.T) {
	cfg := resilienceSoakConfig()
	boom := errors.New("boom")
	cfg.failAttempt = func(label string, attempt int) error { return boom }
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 4 {
		t.Fatalf("%d rows, want 4 in isolation mode", len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if r.Err == "" {
			t.Fatalf("row %s/%s/seed%d lost its error", r.Test, r.Plan, r.Seed)
		}
	}
}

// TestRunnerDeadline exercises the runner-level deadline poll directly:
// a deadline in the past aborts Run with ErrTaskDeadline before any
// meaningful work.
func TestRunnerDeadline(t *testing.T) {
	tc, _ := ByName("MP")
	_, err := Run(tc, RunnerConfig{
		Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
		Iters: 50, Sync: SyncFull, BaseSeed: 1,
		Deadline: time.Now().Add(-time.Second),
	})
	if !errors.Is(err, ErrTaskDeadline) {
		t.Fatalf("err = %v, want ErrTaskDeadline", err)
	}
}

// TestRunnerInterrupt: a closed interrupt channel aborts Run with
// ErrInterrupted at the next poll.
func TestRunnerInterrupt(t *testing.T) {
	tc, _ := ByName("MP")
	stop := make(chan struct{})
	close(stop)
	_, err := Run(tc, RunnerConfig{
		Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
		Iters: 50, Sync: SyncFull, BaseSeed: 1,
		Interrupt: stop,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

// TestSoakInProcessLeaseNeverExpires: RunSoak's slots lease with no TTL.
// One slot holds the first campaign's lease while the queue clock jumps
// a day per attempt and the other slot, leasing the rest, sweeps for
// expired leases on every lease; a retry budget would let an expired
// campaign run again, yet nothing executes twice.
func TestSoakInProcessLeaseNeverExpires(t *testing.T) {
	base, err := RunSoak(resilienceSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	clock := time.Unix(1000, 0)
	executed := make(map[string]int)
	release := make(chan struct{})
	cfg := resilienceSoakConfig()
	cfg.Workers = 2
	cfg.Retries = 2
	cfg.retryBackoff = time.Millisecond
	cfg.failAttempt = func(label string, attempt int) error {
		mu.Lock()
		executed[label]++
		clock = clock.Add(24 * time.Hour)
		mu.Unlock()
		switch {
		case label == "MP/light/seed1" && attempt == 1:
			<-release
		case label == "SB/light/seed2":
			close(release)
		}
		return nil
	}
	rep, err := runSoak(cfg, func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		label := RowLabel(r.Test, r.Plan, r.Seed)
		if n := executed[label]; n != 1 || r.Attempts != 1 {
			t.Errorf("%s executed %d times (row reads %d attempts), want once", label, n, r.Attempts)
		}
	}
	if got, want := rep.Render(), base.Render(); got != want {
		t.Fatalf("report differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}
