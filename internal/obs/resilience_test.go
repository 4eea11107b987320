package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestLedgerTornWriteRecovery pins the crash-mid-append contract: a
// truncated final line (SIGKILL between the O_APPEND write starting and
// finishing, or a partial flush at power loss) is skipped with a
// warning by the lenient reader.
func TestLedgerTornWriteRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := AppendLedger(path, &Record{Tool: "c3soak", RowKey: "MP/light/seed1|v1", Verdict: VerdictPass,
		Row: json.RawMessage(`{"Test":"MP"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := AppendLedger(path, &Record{Tool: "c3soak", RowKey: "SB/light/seed1|v1", Verdict: VerdictPass}); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a torn, newline-less record fragment at EOF.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"c3-run/v1","tool":"c3soak","row_key":"LB/li`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, stats, err := ReadLedgerLenient(path)
	if err != nil {
		t.Fatalf("lenient read failed on a torn final line: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("lenient read returned %d records, want the 2 intact ones", len(recs))
	}
	if recs[0].RowKey != "MP/light/seed1|v1" || recs[1].RowKey != "SB/light/seed1|v1" {
		t.Fatalf("intact records corrupted: %+v / %+v", recs[0], recs[1])
	}
	if stats.Skipped != 1 || len(stats.Warnings) != 1 || !strings.Contains(stats.Warnings[0], "torn/corrupt") {
		t.Fatalf("stats = %+v, want one torn-record warning and Skipped=1", stats)
	}
	if stats.Records != 2 {
		t.Fatalf("stats.Records = %d, want 2", stats.Records)
	}

	// Appends after the torn line still parse: recovery does not require
	// truncating the file first (mid-file corruption is skipped too).
	if err := AppendLedger(path, &Record{Tool: "c3soak", RowKey: "R/light/seed1|v1", Verdict: VerdictPass}); err != nil {
		t.Fatal(err)
	}
	recs, stats, err = ReadLedgerLenient(path)
	if err != nil {
		t.Fatal(err)
	}
	// The torn fragment and the new record share a line (no trailing
	// newline on the fragment), so that line is skipped too — but the
	// earlier intact records always survive, which is what resume needs.
	if len(recs) < 2 || stats.Skipped == 0 {
		t.Fatalf("post-crash append: %d records, stats %+v", len(recs), stats)
	}
}

// TestRowRecordRoundTrip: per-row checkpoint records carry the key and
// an opaque row payload through the ledger intact.
func TestRowRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	row := json.RawMessage(`{"Test":"MP","Plan":"light","Seed":1,"Iters":25,"Forbidden":0}`)
	rec := &Record{Tool: "c3soak", RowKey: "MP/light/seed1|go1.24/abc123", Row: row, Verdict: VerdictPass}
	if err := AppendLedger(path, rec); err != nil {
		t.Fatal(err)
	}
	recs := mustReadLedger(t, path)
	if len(recs) != 1 {
		t.Fatalf("read %d records, want 1", len(recs))
	}
	if recs[0].RowKey != rec.RowKey {
		t.Fatalf("row key = %q, want %q", recs[0].RowKey, rec.RowKey)
	}
	var got map[string]any
	if err := json.Unmarshal(recs[0].Row, &got); err != nil {
		t.Fatalf("row payload not decodable: %v", err)
	}
	if got["Test"] != "MP" || got["Plan"] != "light" {
		t.Fatalf("row payload lost fields: %v", got)
	}
}

// TestShutdownLeaksNoGoroutines is the goroutine-shutdown audit: the
// statusz server and the heartbeat must terminate on Close / context
// cancel, and both of Watch's on its stop, without leaking goroutines,
// across repeated start/stop cycles.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	// One throwaway cycle first so lazily started runtime/http singletons
	// don't count against the baseline.
	cycle := func() {
		ctx, cancel := context.WithCancel(context.Background())
		tr := NewTracker()
		tr.Plan([]string{"a", "b"})
		srv, err := StartStatusz("127.0.0.1:0", "leaktest", tr)
		if err != nil {
			t.Fatal(err)
		}
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		resp, err := client.Get("http://" + srv.Addr() + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		client.CloseIdleConnections()

		stop := Heartbeat(ctx, io.Discard, time.Millisecond, "leaktest", tr)
		time.Sleep(5 * time.Millisecond) // let it tick at least once
		cancel()                         // heartbeat must die on ctx alone...
		srv.Close()                      // ...and Close must join the serve goroutine
		stop()                           // idempotent with the cancelled ctx

		stopWatch, err := Watch("leaktest", "127.0.0.1:0", time.Hour, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		stopWatch()
		if _, err := Watch("leaktest", "127.0.0.1:-1", time.Hour, tr, nil); err == nil {
			t.Fatal("Watch on a bad address armed anyway")
		}
	}
	cycle()

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		cycle()
	}
	// Allow transient runtime goroutines to settle before judging.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines grew from %d to %d after 5 start/stop cycles:\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
