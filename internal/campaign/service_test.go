package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/litmus"
)

// testSweep is a small sweep (tests x the light plan x seeds, 4
// iterations each) that runs in well under a second per shard.
func testSweep(tests []string, seeds []int64) litmus.SoakConfig {
	light, _ := litmus.PlanByName("light")
	return litmus.SoakConfig{Tests: tests, Plans: []litmus.NamedPlan{light}, Seeds: seeds,
		Iters: 4, Retries: 2}.WithDefaults()
}

// testLabels expands sweep's row labels in job order.
func testLabels(t testing.TB, sweep litmus.SoakConfig) []string {
	t.Helper()
	camps, err := litmus.Campaigns(sweep)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(camps))
	for i, c := range camps {
		labels[i] = c.Label()
	}
	return labels
}

// singleProcessReport runs the same sweep through the plain litmus
// engine — the byte-identity reference.
func singleProcessReport(t *testing.T, sweep litmus.SoakConfig) *litmus.SoakReport {
	t.Helper()
	rep, err := litmus.RunSoak(sweep)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func startTestServer(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.Warnf == nil {
		cfg.Warnf = t.Logf
	}
	srv, err := StartServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// runWorkers joins n in-process workers and waits for them all to exit.
func runWorkers(t *testing.T, coordinator string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(WorkerConfig{
				Coordinator:  coordinator,
				Name:         fmt.Sprintf("w%d", i),
				Poll:         20 * time.Millisecond,
				ProbeTimeout: 5 * time.Second,
				Logf:         func(string, ...any) {},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp, buf.Bytes()
}

// TestDistributedMatchesSingleProcess is the tentpole guarantee: at any
// worker count the merged coordinator report is byte-identical to an
// uninterrupted single-process run of the same spec.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	sweep := testSweep([]string{"MP", "SB"}, []int64{1, 2})
	want := singleProcessReport(t, sweep).Render()

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := startTestServer(t, ServerConfig{Sweep: sweep})
			runWorkers(t, "http://"+srv.Addr(), workers)
			select {
			case <-srv.Done():
			case <-time.After(60 * time.Second):
				t.Fatal("campaign did not complete")
			}
			got := srv.Report().Render()
			if got != want {
				t.Errorf("distributed report differs from single-process:\n--- single\n%s\n--- distributed\n%s", want, got)
			}

			// /report serves the same bytes over HTTP.
			resp, err := http.Get("http://" + srv.Addr() + "/report")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || buf.String() != want {
				t.Errorf("/report: status %d, bytes match: %v", resp.StatusCode, buf.String() == want)
			}
		})
	}
}

// TestAbandonedLeaseReassignment kills a worker the hard way: a raw
// lease is taken and never heartbeated, so it expires and the shard is
// reassigned to a live worker. The report must still match the
// single-process reference.
func TestAbandonedLeaseReassignment(t *testing.T) {
	sweep := testSweep([]string{"MP"}, []int64{1})
	want := singleProcessReport(t, sweep).Render()

	sweep.Retries = 5
	srv := startTestServer(t, ServerConfig{
		Sweep:    sweep,
		LeaseTTL: 100 * time.Millisecond,
	})
	base := "http://" + srv.Addr()

	// The doomed worker: leases the only shard, then vanishes.
	resp, body := postJSON(t, base+"/lease", &LeaseRequest{Worker: "doomed"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/lease: %d %s", resp.StatusCode, body)
	}
	var lease LeaseResponse
	if err := json.Unmarshal(body, &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Job != 0 || lease.Label != "MP/light/seed1" {
		t.Fatalf("leased job %d (%s), want 0 (MP/light/seed1)", lease.Job, lease.Label)
	}

	// A live worker takes over after expiry + backoff.
	runWorkers(t, base, 1)
	select {
	case <-srv.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not complete after lease reassignment")
	}
	if got := srv.Report().Render(); got != want {
		t.Errorf("report after reassignment differs:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if snap := srv.Queue().Snapshot(); snap.Expiries < 1 {
		t.Errorf("snapshot %+v, want at least one lease expiry", snap)
	}
}

// TestQuarantineErrorRow starves a shard of a healthy worker entirely:
// every lease is taken and abandoned until the failure budget runs out
// and the shard lands in the report as a loud error row.
func TestQuarantineErrorRow(t *testing.T) {
	sweep := testSweep([]string{"MP"}, []int64{1})
	sweep.Retries = 1
	srv := startTestServer(t, ServerConfig{
		Sweep:    sweep,
		LeaseTTL: 50 * time.Millisecond,
	})
	base := "http://" + srv.Addr()

	deadline := time.After(30 * time.Second)
	for {
		select {
		case <-srv.Done():
		case <-deadline:
			t.Fatal("shard never quarantined")
		default:
		}
		resp, _ := postJSON(t, base+"/lease", &LeaseRequest{Worker: "flaky"})
		if resp.StatusCode == http.StatusGone {
			break // campaign over: quarantine happened
		}
		time.Sleep(20 * time.Millisecond) // hold or retry; never heartbeat
	}
	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("queue not done after quarantine")
	}

	rep := srv.Report()
	if len(rep.Runs) != 1 || !strings.Contains(rep.Runs[0].Err, "quarantined:") {
		t.Fatalf("report rows = %+v, want one quarantine error row", rep.Runs)
	}
	if rep.Verdict() == "pass" {
		t.Fatal("quarantined campaign must not pass")
	}
	if snap := srv.Queue().Snapshot(); snap.Quarantined != 1 {
		t.Errorf("snapshot %+v, want Quarantined=1", snap)
	}
}

// TestCoordinatorRestartResume replays the journal across a coordinator
// restart: rows accepted before the crash are not re-run, and the final
// report is byte-identical to an uninterrupted single-process run.
func TestCoordinatorRestartResume(t *testing.T) {
	sweep := testSweep([]string{"MP", "SB"}, []int64{1, 2})
	ref := singleProcessReport(t, sweep)
	want := ref.Render()
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	labels := testLabels(t, sweep)

	// First coordinator: accepts two rows (journaled), then "crashes"
	// (Close with the campaign unfinished).
	srv1 := startTestServer(t, ServerConfig{Sweep: sweep, LedgerPath: ledger})
	base := "http://" + srv1.Addr()
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, base+"/result", &ResultRequest{
			Worker: "w0",
			JobID:  i,
			RowKey: rowKey(labels[i], srv1.Suffix()),
			Row:    ref.Runs[i],
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit row %d: %d %s", i, resp.StatusCode, body)
		}
	}
	suffix := srv1.Suffix()
	srv1.Close()

	// Restart: the journal seeds the queue; only the remaining shards
	// are leased out.
	completed, stats, err := LoadCheckpoints(ledger, suffix)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 {
		t.Fatalf("journal replay skipped %d records: %v", stats.Skipped, stats.Warnings)
	}
	if len(completed) != 2 {
		t.Fatalf("journal replay found %d rows, want 2", len(completed))
	}

	sweep.Completed = completed
	srv2 := startTestServer(t, ServerConfig{Sweep: sweep, LedgerPath: ledger})
	if snap := srv2.Queue().Snapshot(); snap.Done != 2 || snap.Pending != 2 {
		t.Fatalf("restarted queue %+v, want Done=2 Pending=2", snap)
	}
	runWorkers(t, "http://"+srv2.Addr(), 2)
	select {
	case <-srv2.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("resumed campaign did not complete")
	}
	if got := srv2.Report().Render(); got != want {
		t.Errorf("resumed report differs from single-process:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestResultsStream tails GET /results while workers run: every
// accepted row appears exactly once and the stream ends when the
// campaign does.
func TestResultsStream(t *testing.T) {
	srv := startTestServer(t, ServerConfig{Sweep: testSweep([]string{"MP", "SB"}, []int64{1, 2})})
	base := "http://" + srv.Addr()

	type streamed struct {
		events []ResultEvent
		err    error
	}
	got := make(chan streamed, 1)
	go func() {
		resp, err := http.Get(base + "/results")
		if err != nil {
			got <- streamed{err: err}
			return
		}
		defer resp.Body.Close()
		var evs []ResultEvent
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev ResultEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				got <- streamed{err: err}
				return
			}
			evs = append(evs, ev)
		}
		got <- streamed{events: evs, err: sc.Err()}
	}()

	runWorkers(t, base, 2)
	select {
	case s := <-got:
		if s.err != nil {
			t.Fatal(s.err)
		}
		if len(s.events) != 4 {
			t.Fatalf("stream delivered %d events, want 4: %+v", len(s.events), s.events)
		}
		seen := make(map[int]bool)
		for _, ev := range s.events {
			if seen[ev.JobID] {
				t.Errorf("job %d streamed twice", ev.JobID)
			}
			seen[ev.JobID] = true
			if !strings.HasPrefix(ev.RowKey, ev.Label+"|") {
				t.Errorf("event row key %q does not extend label %q", ev.RowKey, ev.Label)
			}
		}
	case <-time.After(60 * time.Second):
		t.Fatal("/results stream did not terminate after campaign completion")
	}
}

// TestResultRejections exercises the coordinator's input validation:
// mismatched row keys (a worker built from different code), interrupted
// rows, and unknown jobs are all rejected.
func TestResultRejections(t *testing.T) {
	sweep := testSweep([]string{"MP"}, []int64{1})
	var warnings []string
	var mu sync.Mutex
	srv := startTestServer(t, ServerConfig{
		Sweep: sweep,
		Warnf: func(format string, args ...any) {
			mu.Lock()
			warnings = append(warnings, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	base := "http://" + srv.Addr()
	label := testLabels(t, sweep)[0]
	row := litmus.SoakRun{Test: "MP", Plan: "light", Seed: 1, Iters: 4}

	resp, _ := postJSON(t, base+"/result", &ResultRequest{
		JobID: 0, RowKey: rowKey(label, "some-other-binary"), Row: row,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("mismatched row key: status %d, want 409", resp.StatusCode)
	}
	mu.Lock()
	warned := len(warnings) > 0 && strings.Contains(warnings[0], "mismatched binary")
	mu.Unlock()
	if !warned {
		t.Errorf("row-key mismatch did not warn: %v", warnings)
	}

	interrupted := row
	interrupted.Interrupted = true
	resp, _ = postJSON(t, base+"/result", &ResultRequest{
		JobID: 0, RowKey: rowKey(label, srv.Suffix()), Row: interrupted,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("interrupted row: status %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, base+"/result", &ResultRequest{
		JobID: 99, RowKey: "whatever", Row: row,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown job: status %d, want 400", resp.StatusCode)
	}

	// Nothing was accepted: the queue is untouched.
	if snap := srv.Queue().Snapshot(); snap.Done != 0 {
		t.Errorf("snapshot %+v after rejected submissions, want Done=0", snap)
	}
}

// TestWorkerInterrupt: a worker interrupted mid-campaign releases its
// leases (no penalty) and reports ErrWorkerInterrupted; a second worker
// finishes the campaign and the report is still byte-identical.
func TestWorkerInterrupt(t *testing.T) {
	sweep := testSweep([]string{"MP", "SB"}, []int64{1, 2})
	want := singleProcessReport(t, sweep).Render()
	srv := startTestServer(t, ServerConfig{Sweep: sweep})
	base := "http://" + srv.Addr()

	interrupt := make(chan struct{})
	close(interrupt) // interrupted before it leases anything
	err := RunWorker(WorkerConfig{
		Coordinator:  base,
		Name:         "doomed",
		Poll:         20 * time.Millisecond,
		ProbeTimeout: 5 * time.Second,
		Interrupt:    interrupt,
		Logf:         func(string, ...any) {},
	})
	if err != ErrWorkerInterrupted {
		t.Fatalf("interrupted worker returned %v, want ErrWorkerInterrupted", err)
	}

	runWorkers(t, base, 1)
	select {
	case <-srv.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not complete")
	}
	if got := srv.Report().Render(); got != want {
		t.Errorf("report differs after interrupted worker:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestStatuszWorkers checks the coordinator's liveness registry: a
// worker that has leased and submitted shows up with its result count.
func TestStatuszWorkers(t *testing.T) {
	srv := startTestServer(t, ServerConfig{Sweep: testSweep([]string{"MP"}, []int64{1})})
	base := "http://" + srv.Addr()
	runWorkers(t, base, 1)

	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tool != "c3serve" || !st.Done || st.Jobs.Done != 1 {
		t.Fatalf("statusz %+v, want done c3serve with 1 done job", st)
	}
	found := false
	for _, w := range st.Workers {
		if w.Name == "w0" && w.Results == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("statusz workers %+v, want w0 with 1 result", st.Workers)
	}
}

// TestFailedAttemptRetriesOnAnotherWorker: one worker hands its attempt
// back failed (a task-deadline cut); the shard spends one retry, waits
// out the backoff, and succeeds on another worker. The row reads
// Attempts 2 and renders byte-identically to a first-try row.
func TestFailedAttemptRetriesOnAnotherWorker(t *testing.T) {
	sweep := testSweep([]string{"MP"}, []int64{1})
	want := singleProcessReport(t, sweep).Render()
	srv := startTestServer(t, ServerConfig{Sweep: sweep})
	base := "http://" + srv.Addr()

	resp, body := postJSON(t, base+"/lease", &LeaseRequest{Worker: "slow"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/lease: %d %s", resp.StatusCode, body)
	}
	var lease LeaseResponse
	if err := json.Unmarshal(body, &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Attempt != 1 {
		t.Fatalf("first lease is for attempt %d, want 1", lease.Attempt)
	}
	// A "failure" without an error could become the shard's final row as
	// if it had passed: rejected.
	resp, _ = postJSON(t, base+"/release", &ReleaseRequest{Worker: "slow", Lease: lease.Lease,
		Failure: &litmus.SoakRun{Test: "MP", Plan: "light", Seed: 1, Iters: 4}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("release with an error-free failure row: status %d, want 400", resp.StatusCode)
	}
	failed := litmus.SoakRun{Test: "MP", Plan: "light", Seed: 1, Attempts: 1,
		TimedOut: true, Err: "litmus MP: iteration 0: task deadline exceeded"}
	resp, body = postJSON(t, base+"/release", &ReleaseRequest{Worker: "slow", Lease: lease.Lease, Failure: &failed})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"released":true`) {
		t.Fatalf("/release: %d %s", resp.StatusCode, body)
	}

	runWorkers(t, base, 1)
	select {
	case <-srv.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not complete after the failed attempt")
	}
	rep := srv.Report()
	if got := rep.Runs[0].Attempts; got != 2 {
		t.Errorf("row reads Attempts %d, want 2", got)
	}
	if got := rep.Render(); got != want {
		t.Errorf("retried report differs from first-try report:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if snap := srv.Queue().Snapshot(); snap.Requeues != 1 || snap.Expiries != 0 {
		t.Errorf("snapshot %+v, want one requeue and no expiry", snap)
	}
}

// TestJournalResumesSingleProcess is the Go-level twin of the CI
// cross-tool resume leg: rows a coordinator journaled through /result
// load through LoadCheckpoints into RunSoak's Completed, nothing
// executes, and the report renders byte-identically.
func TestJournalResumesSingleProcess(t *testing.T) {
	sweep := testSweep([]string{"MP", "SB"}, []int64{1, 2})
	ref := singleProcessReport(t, sweep)
	ledger := filepath.Join(t.TempDir(), "journal.jsonl")
	labels := testLabels(t, sweep)

	srv := startTestServer(t, ServerConfig{Sweep: sweep, LedgerPath: ledger})
	base := "http://" + srv.Addr()
	for i, label := range labels {
		resp, body := postJSON(t, base+"/result", &ResultRequest{
			Worker: "w0", JobID: i, RowKey: rowKey(label, srv.Suffix()), Row: ref.Runs[i],
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit row %d: %d %s", i, resp.StatusCode, body)
		}
	}
	srv.Close()

	completed, stats, err := LoadCheckpoints(ledger, srv.Suffix())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || len(completed) != len(labels) {
		t.Fatalf("journal replay: %d rows, %d skipped; want %d rows", len(completed), stats.Skipped, len(labels))
	}
	sweep.Completed = completed
	rep, err := litmus.RunSoak(sweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if !r.Resumed {
			t.Errorf("row %s/%s/seed%d executed instead of resuming from the journal", r.Test, r.Plan, r.Seed)
		}
	}
	if got, want := rep.Render(), ref.Render(); got != want {
		t.Errorf("journal-resumed report differs:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestOversizedRequestBody: a request body past maxRequestBytes is
// answered 413 on every POST endpoint, and nothing reaches the queue.
func TestOversizedRequestBody(t *testing.T) {
	srv := startTestServer(t, ServerConfig{Sweep: testSweep([]string{"MP"}, []int64{1})})
	body := `{"worker":"` + strings.Repeat("w", maxRequestBytes) + `"}`
	for _, path := range []string{"/lease", "/heartbeat", "/result", "/release"} {
		resp, err := http.Post("http://"+srv.Addr()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
	if snap := srv.Queue().Snapshot(); snap.Pending != snap.Total {
		t.Errorf("snapshot %+v after oversized requests, want every job pending", snap)
	}
}

// FuzzCoordinatorRequests posts arbitrary bodies to each POST endpoint
// of one coordinator: no body panics a handler or gets a 5xx, and the
// queue's jobs stay accounted for, each in exactly one state.
func FuzzCoordinatorRequests(f *testing.F) {
	sweep := testSweep([]string{"MP"}, []int64{1, 2})
	srv := startTestServer(f, ServerConfig{Sweep: sweep, Warnf: func(string, ...any) {}})
	label := testLabels(f, sweep)[0]
	row := litmus.SoakRun{Test: "MP", Plan: "light", Seed: 1, Iters: 4}
	failed := row
	failed.Err = "task deadline"
	for _, req := range []any{
		&LeaseRequest{Worker: "w0"},
		&HeartbeatRequest{Worker: "w0", Leases: []string{"1", "2"}},
		&ResultRequest{Worker: "w0", Lease: "1", JobID: 0, RowKey: rowKey(label, srv.Suffix()), Row: row},
		&ResultRequest{JobID: 0, RowKey: rowKey(label, "some-other-binary"), Row: row},
		&ResultRequest{JobID: 99, RowKey: "whatever", Row: row},
		&ReleaseRequest{Worker: "w0", Lease: "2", Failure: &failed},
		&ReleaseRequest{Worker: "w0", Lease: "1"},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	h := srv.srv.Handler
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/lease", "/heartbeat", "/result", "/release"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
			}
		}
		snap := srv.Queue().Snapshot()
		if snap.Pending+snap.Leased+snap.Done+snap.Quarantined != snap.Total {
			t.Fatalf("queue snapshot %+v does not account for every job", snap)
		}
	})
}
