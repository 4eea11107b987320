package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"c3/internal/trace"
)

// LedgerSchema versions the record format; bump on incompatible change.
const LedgerSchema = "c3-run/v1"

// Verdicts a record can carry. Tools map their exit conditions onto
// these so ledgers from different commands diff uniformly.
const (
	VerdictPass        = "pass"        // the run's contract held
	VerdictFail        = "fail"        // contract violated (soak FAIL, bench regression)
	VerdictViolation   = "violation"   // checker found a counterexample
	VerdictTimeout     = "timeout"     // sweep hit its wall-clock bound
	VerdictError       = "error"       // infrastructure/usage failure
	VerdictInterrupted = "interrupted" // graceful shutdown; partial results checkpointed
)

// Exit codes the long-running commands share, so scripts and CI can
// dispatch on them uniformly (see the README exit-code table).
const (
	ExitPass      = 0 // contract held
	ExitFail      = 1 // contract violated / violation found / timeout
	ExitUsage     = 2 // flag or configuration error
	ExitResumable = 3 // interrupted by SIGINT/SIGTERM; rerun with -resume
)

// ExitCode maps a run's final verdict onto the shared exit codes: pass
// exits 0, interrupted 3 (resumable), every other verdict 1.
func ExitCode(verdict string) int {
	switch verdict {
	case VerdictPass:
		return ExitPass
	case VerdictInterrupted:
		return ExitResumable
	}
	return ExitFail
}

// Record is one invocation's ledger entry: enough to re-run the sweep
// exactly (spec + seeds + version) and to diff what it did (metrics +
// verdict + wall time). Records append as single JSON lines, so a ledger
// is greppable, jq-able, and mergeable by concatenation.
type Record struct {
	Schema string `json:"schema"`
	// Tool is the command name ("c3soak", "c3check", "c3bench").
	Tool string `json:"tool"`
	// Spec is the canonical run specification — the full flag rendering
	// a reader could paste after the tool name to reproduce the run.
	Spec string `json:"spec"`
	// Seeds lists the campaign base seeds, when the tool has them.
	Seeds []int64 `json:"seeds,omitempty"`
	// Workers is the resolved worker count (0 = GOMAXPROCS default).
	Workers int `json:"workers"`
	// Version identifies the code (go toolchain + VCS revision).
	Version VersionInfo `json:"version"`
	// Start / WallMS bound the run in wall-clock terms.
	Start  time.Time `json:"start"`
	WallMS int64     `json:"wall_ms"`
	// Verdict is one of the Verdict* constants; Exit the process's exit
	// status.
	Verdict string `json:"verdict"`
	Exit    int    `json:"exit"`
	// Metrics is the final aggregate registry dump (trace.Registry
	// RenderJSON), when the tool keeps one.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Extra carries tool-specific results (soak row counts, checker
	// state counts, bench stats).
	Extra map[string]any `json:"extra,omitempty"`
	// RowKey marks a per-row checkpoint record: the content-addressed
	// (spec, seed, code-version) cache key of one completed sweep row,
	// appended as the row finishes so an interrupted sweep can resume by
	// skipping every key already present. Empty on whole-run records.
	RowKey string `json:"row_key,omitempty"`
	// Row is the tool-specific row payload a resume reloads verbatim
	// (c3soak stores the litmus.SoakRun). Set only with RowKey.
	Row json.RawMessage `json:"row,omitempty"`
}

// DefaultLedgerPath resolves where records go: $C3_LEDGER if set, else
// c3runs.jsonl in the working directory.
func DefaultLedgerPath() string {
	if p := os.Getenv("C3_LEDGER"); p != "" {
		return p
	}
	return "c3runs.jsonl"
}

// AppendLedger appends one record to the JSONL ledger at path, creating
// the file if needed. The write is a single O_APPEND write of one line,
// so concurrent appenders (a sharded sweep's workers, parallel CI jobs
// on a shared volume) interleave whole records, never partial ones.
func AppendLedger(path string, rec *Record) error {
	if rec.Schema == "" {
		rec.Schema = LedgerSchema
	}
	if rec.Start.IsZero() {
		rec.Start = time.Now()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: ledger marshal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: ledger open: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("obs: ledger write: %w", err)
	}
	return f.Close()
}

// AppendRun appends a tool's whole-run record to the ledger at path, if
// any: the tool's own fields, plus the code version, start, wall time
// and reg's final dump (when reg renders). A failed append only warns on
// stderr: a run's verdict must not depend on a full disk.
func AppendRun(path string, start time.Time, reg *trace.Registry, rec Record) {
	if path == "" {
		return
	}
	rec.Version = Version()
	rec.Start = start
	rec.WallMS = time.Since(start).Milliseconds()
	if reg != nil {
		var metrics bytes.Buffer
		if reg.RenderJSON(&metrics) == nil {
			rec.Metrics = metrics.Bytes()
		}
	}
	if err := AppendLedger(path, &rec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: ledger: %v\n", rec.Tool, err)
	}
}

// SpecFromFlags renders the command line's explicitly set flags as a
// canonical, pasteable spec string ("-tests=MP,SB -iters=50"), in
// lexicographic flag order with shell-unfriendly values quoted. Flags
// named in exclude are omitted — the observability knobs (-statusz,
// -heartbeat, -ledger) never change what a run computes, so two runs
// that differ only there must produce the same spec (the future result
// cache keys on it).
func SpecFromFlags(exclude ...string) string {
	return specFromSet(flag.CommandLine, exclude)
}

func specFromSet(fs *flag.FlagSet, exclude []string) string {
	skip := make(map[string]bool, len(exclude))
	for _, n := range exclude {
		skip[n] = true
	}
	var parts []string
	fs.Visit(func(f *flag.Flag) {
		if skip[f.Name] {
			return
		}
		v := f.Value.String()
		if strings.ContainsAny(v, " \t;\"'") {
			v = strconv.Quote(v)
		}
		parts = append(parts, "-"+f.Name+"="+v)
	})
	return strings.Join(parts, " ")
}

// LedgerStats summarizes a lenient ledger read, so callers (resume,
// coordinator journal replay) can report what the read dropped rather
// than silently acting on a subset.
type LedgerStats struct {
	// Records is how many intact records parsed.
	Records int
	// Skipped is how many torn/corrupt lines were dropped — normally 0,
	// or 1 after a SIGKILL mid-append. More than one final-line's worth
	// suggests real corruption, which callers should surface loudly.
	Skipped int
	// Warnings holds one human-readable line per skipped record.
	Warnings []string
}

// ReadLedgerLenient parses the ledger at path, skipping malformed lines
// instead of failing. A process killed mid-append (SIGKILL, power loss)
// leaves a torn final line — the O_APPEND whole-line write contract
// guarantees every *earlier* line is intact, so a resume can trust what
// parses and drop the tail. The returned stats carry the skipped-line
// count and a warning per skipped line; callers that resume or replay
// should print Skipped when it is non-zero.
func ReadLedgerLenient(path string) ([]Record, LedgerStats, error) {
	var stats LedgerStats
	f, err := os.Open(path)
	if err != nil {
		return nil, stats, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			stats.Skipped++
			stats.Warnings = append(stats.Warnings,
				fmt.Sprintf("obs: ledger %s line %d: skipping torn/corrupt record: %v", path, ln, err))
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, stats, err
	}
	stats.Records = len(out)
	return out, stats, nil
}
