package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestHealthzEndpoint: the statusz server answers /healthz with a cheap
// liveness document — the probe target workers use on their
// coordinator, and CI wait loops use on any tool.
func TestHealthzEndpoint(t *testing.T) {
	srv, err := StartStatusz("127.0.0.1:0", "healthtest", NewTracker())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Tool != "healthtest" || h.PID != os.Getpid() {
		t.Fatalf("health = %+v", h)
	}
	if h.UptimeMS < 0 {
		t.Fatalf("uptime = %d, want non-negative", h.UptimeMS)
	}
}

// appendRaw simulates a separate process's appender: its own fd on the
// shared ledger file, opened exactly as AppendLedger opens it. O_APPEND
// write atomicity is a per-write, per-fd kernel property, so two fds in
// one test process exercise the same interleaving contract as two
// processes on a shared volume.
func appendRaw(t *testing.T, path string, rec *Record) {
	t.Helper()
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
}

// dedupRows folds records into the concat-merge resume view: the last
// record per row_key wins.
func dedupRows(recs []Record) map[string]string {
	out := make(map[string]string)
	for _, r := range recs {
		if r.RowKey != "" {
			out[r.RowKey] = string(r.Row)
		}
	}
	return out
}

// TestConcurrentLedgerAppends pins the multi-writer contract the
// distributed campaign service rests on: two independent writers
// O_APPEND-interleaving whole-line records into one ledger produce a
// file with no torn or interleaved lines, and the row_key dedup of the
// merged stream is order-independent.
func TestConcurrentLedgerAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	const perWriter = 200

	// Both writers cover the same row_key space with byte-identical rows
	// (the determinism contract: any executor of a shard produces the
	// same row), so at-least-once execution plus dedup is safe.
	row := func(k int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"Test":"MP","Seed":%d,"Iters":25}`, k))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := i % 50 // overlap within and across writers
				appendRaw(t, path, &Record{
					Tool:   fmt.Sprintf("writer%d", w),
					RowKey: fmt.Sprintf("MP/light/seed%d|v1", k),
					Row:    row(k),
				})
			}
		}(w)
	}
	wg.Wait()

	// Every line must be a whole record — no interleaving, no tearing,
	// nothing for the lenient reader to skip.
	recs := mustReadLedger(t, path)
	if len(recs) != 2*perWriter {
		t.Fatalf("read %d records, want %d", len(recs), 2*perWriter)
	}

	// Order independence: dedup of the stream equals dedup of the
	// reversed stream — true here because every record for a key carries
	// the same row bytes, which is exactly what seed determinism
	// guarantees for real shards.
	fwd := dedupRows(recs)
	rev := make([]Record, len(recs))
	for i, r := range recs {
		rev[len(recs)-1-i] = r
	}
	if got := dedupRows(rev); !reflect.DeepEqual(fwd, got) {
		t.Fatalf("row_key dedup is order-dependent:\nfwd: %v\nrev: %v", fwd, got)
	}
	if len(fwd) != 50 {
		t.Fatalf("deduped to %d keys, want 50", len(fwd))
	}
	for k, r := range fwd {
		var seed struct{ Seed int }
		if err := json.Unmarshal([]byte(r), &seed); err != nil {
			t.Fatalf("key %s row corrupt: %v", k, err)
		}
	}
}

// TestCompactLedger: compaction keeps the latest record per row_key and
// every non-row record, drops torn lines, and the resume view (last
// record per key) is identical before and after.
func TestCompactLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	// Whole-run history record (no row_key) — must survive.
	if err := AppendLedger(path, &Record{Tool: "c3soak", Spec: "-iters=5", Verdict: VerdictPass}); err != nil {
		t.Fatal(err)
	}
	// Two generations of the same row, then a distinct row.
	for gen := 0; gen < 2; gen++ {
		if err := AppendLedger(path, &Record{Tool: "c3soak", RowKey: "MP/light/seed1|v1",
			Row: json.RawMessage(fmt.Sprintf(`{"Test":"MP","Iters":%d}`, 5+gen)), Verdict: VerdictPass}); err != nil {
			t.Fatal(err)
		}
	}
	if err := AppendLedger(path, &Record{Tool: "c3soak", RowKey: "SB/light/seed1|v1",
		Row: json.RawMessage(`{"Test":"SB","Iters":5}`), Verdict: VerdictPass}); err != nil {
		t.Fatal(err)
	}
	// Torn tail from a SIGKILL.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"c3-run/v1","row_key":"LB/li`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before, _, err := ReadLedgerLenient(path)
	if err != nil {
		t.Fatal(err)
	}
	wantView := dedupRows(before)

	stats, err := CompactLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.In != 4 || stats.Out != 3 || stats.DroppedRows != 1 || stats.Torn != 1 {
		t.Fatalf("stats = %+v, want In=4 Out=3 DroppedRows=1 Torn=1", stats)
	}

	// Post-compaction every line parses (the torn tail is gone) and the
	// resume view is unchanged.
	after := mustReadLedger(t, path)
	if len(after) != 3 {
		t.Fatalf("compacted to %d records, want 3", len(after))
	}
	if after[0].RowKey != "" || after[0].Spec != "-iters=5" {
		t.Fatalf("whole-run record lost or reordered: %+v", after[0])
	}
	if got := dedupRows(after); !reflect.DeepEqual(wantView, got) {
		t.Fatalf("resume view changed across compaction:\nwant %v\ngot  %v", wantView, got)
	}
	// The surviving MP record is the later generation.
	var mp struct{ Iters int }
	if err := json.Unmarshal([]byte(wantView["MP/light/seed1|v1"]), &mp); err != nil || mp.Iters != 6 {
		t.Fatalf("latest-wins violated: %v %+v", err, mp)
	}

	// Idempotent: compacting a compacted ledger drops nothing.
	stats2, err := CompactLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.DroppedRows != 0 || stats2.Torn != 0 || stats2.Out != 3 {
		t.Fatalf("second compaction not a no-op: %+v", stats2)
	}
}
