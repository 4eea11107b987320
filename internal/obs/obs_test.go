package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"c3/internal/trace"
)

func TestTrackerSnapshot(t *testing.T) {
	tr := NewTracker()
	tr.Plan([]string{"MP/light/seed1", "SB/noisy/seed1", "LB/stall/seed2"})
	tr.TaskStarted(0)
	tr.TaskStarted(2)
	tr.TaskDone(0, nil)

	s := tr.Snapshot()
	if s.Total != 3 || s.Done != 1 || s.Failed != 0 {
		t.Fatalf("snapshot = %d/%d done, %d failed; want 1/3, 0", s.Done, s.Total, s.Failed)
	}
	if want := 100.0 / 3; s.Percent < want-0.01 || s.Percent > want+0.01 {
		t.Errorf("percent = %v, want %v", s.Percent, want)
	}
	if len(s.InFlight) != 1 || s.InFlight[0].Index != 2 || s.InFlight[0].Label != "LB/stall/seed2" {
		t.Fatalf("in flight = %+v, want item 2 with its planned label", s.InFlight)
	}

	tr.TaskDone(2, errors.New("boom"))
	s = tr.Snapshot()
	if s.Done != 2 || s.Failed != 1 || len(s.InFlight) != 0 {
		t.Fatalf("after failure: %d done %d failed %d in flight, want 2/1/0", s.Done, s.Failed, len(s.InFlight))
	}
}

func TestTrackerAnonymousLabels(t *testing.T) {
	tr := NewTracker()
	tr.TaskStarted(7)
	s := tr.Snapshot()
	if len(s.InFlight) != 1 || s.InFlight[0].Label != "item 7" {
		t.Fatalf("anonymous label = %+v, want \"item 7\"", s.InFlight)
	}
}

// Plan must restart the ETA clock: a tracker built long before the
// sweep starts (config parsing, model builds) must not report that setup
// time as elapsed sweep time — it inflates ElapsedMS directly and ETAMS
// through the per-item extrapolation.
func TestTrackerClockRestart(t *testing.T) {
	for _, tc := range []struct {
		name     string
		announce func(tr *Tracker)
	}{
		{"Plan", func(tr *Tracker) { tr.Plan([]string{"a", "b"}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracker()
			// Simulate a tracker constructed an hour before the sweep.
			tr.mu.Lock()
			tr.started = time.Now().Add(-time.Hour)
			tr.mu.Unlock()
			tc.announce(tr)
			tr.TaskStarted(0)
			tr.TaskDone(0, nil)
			s := tr.Snapshot()
			if s.ElapsedMS > 10_000 {
				t.Fatalf("%s did not restart the clock: ElapsedMS = %d", tc.name, s.ElapsedMS)
			}
			// One of two items done almost instantly: the linear ETA must
			// be of the same magnitude, not the backdated hour.
			if s.ETAMS > 10_000 {
				t.Fatalf("%s: ETAMS = %d, extrapolated from a stale clock", tc.name, s.ETAMS)
			}
		})
	}
}

// lockedBuf lets the heartbeat goroutine and the test share a buffer.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestHeartbeat(t *testing.T) {
	tr := NewTracker()
	tr.Plan([]string{"a", "b"})
	tr.TaskStarted(0)
	tr.TaskDone(0, nil)
	tr.TaskStarted(1)

	var buf lockedBuf
	stop := Heartbeat(context.Background(), &buf, time.Millisecond, "c3soak", tr)
	deadline := time.Now().Add(2 * time.Second)
	for buf.String() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent

	out := buf.String()
	if !strings.Contains(out, "c3soak: 1/2 done (50.0%)") {
		t.Fatalf("heartbeat line missing progress:\n%s", out)
	}
	if !strings.Contains(out, "running: b") {
		t.Fatalf("heartbeat line missing in-flight label:\n%s", out)
	}
}

// mustReadLedger reads the ledger at path and fails t unless every line
// parsed: no torn or interleaved record for the lenient reader to skip.
func mustReadLedger(t *testing.T, path string) []Record {
	t.Helper()
	recs, stats, err := ReadLedgerLenient(path)
	if err != nil || stats.Skipped != 0 {
		t.Fatalf("read %s: %v (%d lines skipped: %v)", path, err, stats.Skipped, stats.Warnings)
	}
	return recs
}

func TestLedgerAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	first := &Record{Tool: "c3soak", Spec: "-iters=50", Verdict: VerdictPass, Workers: 4,
		Seeds: []int64{1, 2}, Metrics: json.RawMessage(`{"counters":{}}`)}
	if err := AppendLedger(path, first); err != nil {
		t.Fatal(err)
	}
	if err := AppendLedger(path, &Record{Tool: "c3check", Verdict: VerdictViolation, Exit: 1}); err != nil {
		t.Fatal(err)
	}

	recs := mustReadLedger(t, path)
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
	if recs[0].Schema != LedgerSchema || recs[1].Schema != LedgerSchema {
		t.Errorf("schema not defaulted: %q / %q", recs[0].Schema, recs[1].Schema)
	}
	if recs[0].Start.IsZero() {
		t.Error("start not defaulted")
	}
	if recs[0].Spec != "-iters=50" || len(recs[0].Seeds) != 2 || recs[0].Workers != 4 {
		t.Errorf("record 0 fields lost: %+v", recs[0])
	}
	if recs[1].Tool != "c3check" || recs[1].Verdict != VerdictViolation || recs[1].Exit != 1 {
		t.Errorf("record 1 fields lost: %+v", recs[1])
	}
}

// TestLedgerConcurrentAppend pins the whole-line interleaving contract:
// parallel appenders (sharded CI jobs on one volume) never corrupt a
// record.
func TestLedgerConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	const writers, per = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := &Record{Tool: "c3soak", Spec: fmt.Sprintf("-writer=%d -i=%d", w, i), Verdict: VerdictPass}
				if err := AppendLedger(path, rec); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	recs := mustReadLedger(t, path)
	if len(recs) != writers*per {
		t.Fatalf("read %d records, want %d", len(recs), writers*per)
	}
}

func TestSpecFromFlags(t *testing.T) {
	fs := flag.NewFlagSet("c3soak", flag.ContinueOnError)
	fs.String("tests", "", "")
	fs.String("plans", "", "")
	fs.Int("iters", 25, "")
	fs.String("statusz", "", "")
	fs.Bool("v", false, "")
	if err := fs.Parse([]string{"-iters", "50", "-plans", "light;crash", "-tests", "MP,SB", "-statusz", ":0"}); err != nil {
		t.Fatal(err)
	}
	got := specFromSet(fs, []string{"statusz"})
	// Lexicographic flag order, quoted where shell-hostile, -statusz
	// excluded, unset -v absent.
	want := `-iters=50 -plans="light;crash" -tests=MP,SB`
	if got != want {
		t.Fatalf("spec = %q, want %q", got, want)
	}
}

// TestStatuszMidRun is the acceptance check: fetch /statusz while a
// sweep is in flight and decode it. The tracker has an item running and
// the registry counter is mid-count when the fetch happens.
func TestStatuszMidRun(t *testing.T) {
	tr := NewTracker()
	tr.Plan([]string{"MP/light/seed1", "MP/noisy/seed1"})
	tr.TaskStarted(0)
	tr.TaskDone(0, nil)
	tr.TaskStarted(1) // still running when we fetch

	var forbidden atomic.Uint64
	forbidden.Store(3)
	reg := trace.NewRegistry()
	reg.Counter("soak.forbidden", forbidden.Load)

	srv, err := StartStatusz("127.0.0.1:0", "c3soak", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetRegistry(reg)

	var snap Snapshot
	body := fetch(t, "http://"+srv.Addr()+"/statusz")
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/statusz is not decodable JSON: %v\n%s", err, body)
	}
	if snap.Tool != "c3soak" || snap.PID == 0 {
		t.Errorf("tool/pid = %q/%d", snap.Tool, snap.PID)
	}
	if snap.Version.Go == "" {
		t.Error("version.go empty")
	}
	if snap.Progress.Total != 2 || snap.Progress.Done != 1 {
		t.Errorf("progress = %d/%d, want 1/2", snap.Progress.Done, snap.Progress.Total)
	}
	if len(snap.Progress.InFlight) != 1 || snap.Progress.InFlight[0].Label != "MP/noisy/seed1" {
		t.Errorf("in flight = %+v, want the running campaign", snap.Progress.InFlight)
	}
	var metrics struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(snap.Metrics, &metrics); err != nil {
		t.Fatalf("embedded metrics not decodable: %v", err)
	}
	if metrics.Counters["soak.forbidden"] != 3 {
		t.Errorf("soak.forbidden = %d, want 3", metrics.Counters["soak.forbidden"])
	}

	// /metricsz serves the bare registry; /debug/vars is expvar.
	if err := json.Unmarshal(fetch(t, "http://"+srv.Addr()+"/metricsz"), &metrics); err != nil {
		t.Fatalf("/metricsz not decodable: %v", err)
	}
	var vars map[string]any
	if err := json.Unmarshal(fetch(t, "http://"+srv.Addr()+"/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars not decodable: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars missing memstats")
	}
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestVersion(t *testing.T) {
	v := Version()
	if v.Go == "" {
		t.Fatal("Version().Go empty")
	}
}
