package campaign

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"c3/internal/litmus"
	"c3/internal/obs"
	"c3/internal/system"
)

// SweepFlags are the flags c3soak and c3serve share: the sweep (tests ×
// plans × seeds on one machine), its budgets, and the ledger it
// checkpoints into and resumes from. Both tools parse them into the
// same litmus.SoakConfig, so one flag line names the same campaign in
// either.
type SweepFlags struct {
	tests, plans, seeds string
	iters               int
	machine             system.MachineFlags
	taskTimeout         time.Duration
	retries             int
	resume              bool

	// Timeout bounds the whole sweep's wall clock (0 = none).
	Timeout time.Duration
	// Ledger is the row-checkpoint ledger ("" = off) -resume replays.
	Ledger string
}

// Register defines the sweep flags on fs.
func (f *SweepFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.tests, "tests", "", "litmus tests, comma-separated (default: the Table IV set)")
	fs.StringVar(&f.plans, "plans", "", "fault plans, ';'-separated: preset names and/or drop=..,dup=.. specs (default: all presets)")
	fs.StringVar(&f.seeds, "seeds", "1", "campaign base seeds, comma-separated")
	fs.IntVar(&f.iters, "iters", 25, "iterations per campaign")
	f.machine.Register(fs)
	fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock bound for the whole sweep, e.g. 5m (0 = none); unfinished campaigns record TIMEOUT")
	fs.DurationVar(&f.taskTimeout, "task-timeout", 0, "wall-clock bound per campaign attempt (0 = none); an expired attempt spends a retry")
	fs.IntVar(&f.retries, "retries", 2, "failed attempts a campaign may retry — task-deadline cuts, panics, lease expiries and failed hand-backs alike — under capped exponential backoff; the next failure records the row")
	fs.StringVar(&f.Ledger, "ledger", obs.DefaultLedgerPath(), "checkpoint every finished row and append the run record to this JSONL file (empty = off)")
	fs.BoolVar(&f.resume, "resume", false, "skip campaigns already checkpointed in the ledger (same spec, seed and code version)")
}

// Config validates the flags into the normalized sweep: defaults from
// WithDefaults, plans from litmus.ResolvePlan, and test names and
// repeated rows checked by expanding it once. Every error is a usage
// error.
func (f *SweepFlags) Config() (litmus.SoakConfig, error) {
	if f.Timeout < 0 || f.taskTimeout < 0 || f.retries < 0 {
		return litmus.SoakConfig{}, errors.New("-timeout, -task-timeout and -retries must be non-negative")
	}
	if f.resume && f.Ledger == "" {
		return litmus.SoakConfig{}, errors.New("-resume needs a ledger (-ledger)")
	}
	m, err := f.machine.Machine()
	if err != nil {
		return litmus.SoakConfig{}, err
	}
	cfg := litmus.SoakConfig{Tests: split(f.tests, ","), Iters: f.iters,
		Locals: m.Locals, Global: m.Global, MCMs: m.MCMs,
		TaskTimeout: f.taskTimeout, Retries: f.retries}
	for _, s := range split(f.seeds, ",") {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return litmus.SoakConfig{}, fmt.Errorf("bad seed %q", s)
		}
		cfg.Seeds = append(cfg.Seeds, v)
	}
	for _, s := range split(f.plans, ";") {
		p, err := litmus.ResolvePlan(s)
		if err != nil {
			return litmus.SoakConfig{}, err
		}
		cfg.Plans = append(cfg.Plans, p)
	}
	cfg = cfg.WithDefaults()
	if _, err := litmus.Campaigns(cfg); err != nil {
		return litmus.SoakConfig{}, err
	}
	return cfg, nil
}

// Completed loads the rows -resume skips: every checkpoint in the ledger
// whose key carries cfg's RowSuffix (nil without -resume). A missing
// ledger starts fresh; warnings and the loaded count go to stderr under
// tool's name.
func (f *SweepFlags) Completed(tool string, cfg litmus.SoakConfig) (map[string]litmus.SoakRun, error) {
	if !f.resume {
		return nil, nil
	}
	completed, stats, err := LoadCheckpoints(f.Ledger, RowSuffix(cfg))
	switch {
	case os.IsNotExist(err):
		fmt.Fprintf(os.Stderr, "%s: resume: no ledger at %s, starting fresh\n", tool, f.Ledger)
	case err != nil:
		return nil, fmt.Errorf("-resume: %w", err)
	}
	for _, w := range stats.Warnings {
		fmt.Fprintf(os.Stderr, "%s: resume: %s\n", tool, w)
	}
	if stats.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "%s: resume: %d torn/corrupt ledger record(s) skipped\n", tool, stats.Skipped)
	}
	fmt.Fprintf(os.Stderr, "%s: resume: %d completed rows loaded from %s\n", tool, len(completed), f.Ledger)
	return completed, nil
}

// split returns the non-empty, space-trimmed fields of s.
func split(s, sep string) []string {
	var out []string
	for _, f := range strings.Split(s, sep) {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
