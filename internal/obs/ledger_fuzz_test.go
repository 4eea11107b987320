package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadLedgerLenient: whatever bytes a ledger file holds, the lenient
// reader returns without panicking, and every non-empty line (split as
// bufio.ScanLines splits, a trailing CR dropped) is either a returned
// record or counted in Skipped. Then the same bytes, escaped into a
// record, are torn at a point they choose and appended to an intact
// ledger: the read must yield exactly the intact records and skip the
// fragment. Seeded with the ledgers of the resilience tests.
func FuzzReadLedgerLenient(f *testing.F) {
	row := func(key, payload string) []byte {
		line, err := json.Marshal(&Record{Schema: LedgerSchema, Tool: "c3soak", RowKey: key,
			Verdict: VerdictPass, Row: json.RawMessage(payload)})
		if err != nil {
			f.Fatal(err)
		}
		return append(line, '\n')
	}
	intact := append(row("MP/light/seed1|v1", `{"Test":"MP"}`), row("SB/light/seed1|v1", `null`)...)
	f.Add(intact)
	f.Add(append(append([]byte(nil), intact...), `{"schema":"c3-run/v1","tool":"c3soak","row_key":"LB/li`...))
	f.Add(row("MP/light/seed1|v1", `{"Test":"MP","Plan":"light","Seed":1,"Iters":25,"Forbidden":0}`))
	f.Add([]byte("\n\r\n{}\r\nnot json\n\n{\"tool\":1}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		read := func(name string, content []byte) ([]Record, LedgerStats) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			recs, stats, err := ReadLedgerLenient(path)
			if err != nil {
				t.Fatalf("lenient read of %q: %v", content, err)
			}
			if stats.Records != len(recs) || stats.Skipped != len(stats.Warnings) {
				t.Fatalf("stats %+v disagree with %d records", stats, len(recs))
			}
			return recs, stats
		}

		recs, stats := read("arbitrary.jsonl", data)
		lines := 0
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSuffix(l, []byte("\r"))) > 0 {
				lines++
			}
		}
		if len(recs)+stats.Skipped != lines {
			t.Fatalf("%d records + %d skipped for %d non-empty lines of %q", len(recs), stats.Skipped, lines, data)
		}

		want, _ := read("intact.jsonl", intact)
		torn, err := json.Marshal(&Record{Tool: "c3soak", Spec: string(data)})
		if err != nil {
			t.Fatal(err)
		}
		torn = torn[:len(data)%len(torn)] // a strict prefix: never a whole object
		got, stats := read("torn.jsonl", append(append([]byte(nil), intact...), torn...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("torn ledger read %+v, want the intact %+v", got, want)
		}
		if wantSkipped := min(len(torn), 1); stats.Skipped != wantSkipped {
			t.Fatalf("torn tail %q: skipped %d lines, want %d", torn, stats.Skipped, wantSkipped)
		}
	})
}
