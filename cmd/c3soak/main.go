// Command c3soak proves the coherence protocol survives an unreliable
// CXL link: it fans litmus campaigns across fault plans and seeds, each
// on a fabric that drops, duplicates, delays and stalls cross-cluster
// messages, and asserts that every run either passes its coherence
// checks or reports detected degradation (poisoned lines, classified
// watchdog hangs) — never a silent wrong value, never a panic.
//
// Usage:
//
//	c3soak                                     # Table IV x default presets x seed 1
//	c3soak -tests MP,SB -plans "light;blackout" -iters 50
//	c3soak -plans drop=0.02,dup=0.02 -seeds 1,2,3 -j 4
//	c3soak -plans "crash;crash-rejoin" -timeout 5m  # host-crash sweep
//	c3soak -statusz :8080 -heartbeat 10s            # live introspection
//	c3soak -task-timeout 2m -retries 3              # per-campaign budgets
//	c3soak -resume                                  # skip checkpointed rows
//	c3soak -list-plans
//
// -plans entries are separated by ';' (a plan spec itself uses commas).
//
// Resilience: every completed campaign row is checkpointed to the run
// ledger as it finishes, so a sweep killed at any point — SIGKILL, OOM,
// power loss — finishes correctly on restart: -resume replays the
// ledger, skips every (spec, seed, code-version) row already verdicted,
// re-runs the rest, and emits a report byte-identical to an
// uninterrupted run. SIGINT/SIGTERM shut down gracefully: in-flight
// campaigns stop at their next poll, the partial report and ledger
// checkpoint flush, and the process exits 3 (resumable); a second
// signal kills immediately. -task-timeout bounds each campaign attempt;
// -retries is the one failure budget, spent by timed-out and panicked
// attempts under capped exponential backoff before the row is recorded
// as TIMEOUT or ERROR. A failing campaign never cancels its siblings.
//
// c3soak is c3serve without a listener: both take the same sweep flags
// into the same litmus.SoakConfig, schedule it on the same lease queue,
// and run every attempt through the same executor, so a c3soak ledger
// and a c3serve journal resume each other. A sweep that names one
// campaign twice (a repeated test, plan or seed) is a usage error.
//
// Observability: -statusz serves a JSON run snapshot (plus pprof and
// expvar) while the sweep runs, -heartbeat prints a progress line to
// stderr for headless CI, and every invocation appends a JSONL record
// to the run ledger (-ledger, default $C3_LEDGER or c3runs.jsonl;
// empty disables). None of these change the report: its bytes are
// identical with and without them, at any worker count.
//
// Exit status: 0 the soak contract held; 1 a silent coherence
// violation, an aborted campaign, or a sweep timeout (the report shows
// which, and the ledger verdict distinguishes "timeout" from "fail");
// 2 usage error; 3 interrupted by SIGINT/SIGTERM with completed rows
// checkpointed — rerun with -resume to finish.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"c3"
	"c3/internal/campaign"
	"c3/internal/litmus"
	"c3/internal/obs"
	"c3/internal/trace"
)

func main() {
	var sweep campaign.SweepFlags
	sweep.Register(flag.CommandLine)
	workers := flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS; reports are identical for any count)")
	flag.IntVar(workers, "workers", 0, "alias for -j")
	listPlans := flag.Bool("list-plans", false, "list the named fault-plan presets")
	statusz := flag.String("statusz", "", "serve live introspection (/statusz JSON, /metricsz, pprof, expvar) on this address, e.g. :8080 or 127.0.0.1:0")
	heartbeat := flag.Duration("heartbeat", 0, "print a progress line to stderr at this interval (0 = off)")
	compact := flag.Bool("compact-ledger", false, "rewrite the ledger keeping only the latest record per row key, then exit (resume output is unchanged)")
	flag.Parse()

	if *listPlans {
		for _, n := range c3.FaultPlans() {
			p, _ := c3.ParseFaultPlan(n)
			fmt.Printf("%-12s %s\n", n, p.String())
		}
		return
	}

	if *compact {
		if sweep.Ledger == "" {
			fmt.Fprintln(os.Stderr, "c3soak: -compact-ledger needs a ledger (-ledger)")
			os.Exit(obs.ExitUsage)
		}
		stats, err := obs.CompactLedger(sweep.Ledger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c3soak: compact:", err)
			os.Exit(obs.ExitFail)
		}
		fmt.Fprintf(os.Stderr, "c3soak: compact: %s: %d records -> %d (%d superseded row checkpoints dropped, %d torn)\n",
			sweep.Ledger, stats.In, stats.Out, stats.DroppedRows, stats.Torn)
		return
	}

	cfg, err := sweep.Config()
	failUsage(err)
	cfg.Workers = *workers
	cfg.Timeout = sweep.Timeout

	// The row-checkpoint suffix scopes checkpoint keys to everything that
	// shapes a row's result: the run configuration and the code version.
	// A resumed sweep only trusts rows whose suffix matches its own, so
	// changing a flag or rebuilding at a different revision invalidates
	// the cache naturally. c3serve computes the same suffix, so
	// coordinator journals and c3soak checkpoint ledgers resume each
	// other.
	suffix := campaign.RowSuffix(cfg)

	// Graceful shutdown: the first SIGINT/SIGTERM closes the interrupt
	// channel — in-flight campaigns stop at their next poll, the partial
	// report and checkpoints flush, and the exit code says "resumable".
	cfg.Interrupt = obs.Interrupt("c3soak", "stopping gracefully, checkpointing completed rows")
	cfg.Completed, err = sweep.Completed("c3soak", cfg)
	failUsage(err)

	// Live introspection: the tracker follows the campaign slots, the
	// registry aggregates atomically maintained sweep counters (safe to
	// render from HTTP goroutines mid-run), and the optional server and
	// heartbeat read both. None of it touches the report. The observer
	// also checkpoints each completed row to the ledger as it finishes.
	so := newSoakObserver(sweep.Ledger, suffix)
	cfg.Observer = so
	stopWatch, err := obs.Watch("c3soak", *statusz, *heartbeat, so.Tracker, so.registry)
	failUsage(err)

	start := time.Now()
	rep, err := litmus.RunSoak(cfg)
	stopWatch()
	if err != nil {
		appendLedger(sweep.Ledger, so, cfg, start, obs.VerdictError, obs.ExitUsage, map[string]any{"error": err.Error()})
		failUsage(err)
	}

	fmt.Print(rep.Render())
	verdict := rep.Verdict()
	exit := obs.ExitCode(verdict)
	resumed := 0
	for _, r := range rep.Runs {
		if r.Resumed {
			resumed++
		}
	}
	appendLedger(sweep.Ledger, so, cfg, start, verdict, exit, map[string]any{
		"campaigns": len(rep.Runs),
		"resumed":   resumed,
		"forbidden": so.forbidden.Load(),
		"poisoned":  so.poisoned.Load(),
		"crashed":   so.crashed.Load(),
		"hangs":     so.hangs.Load(),
		"timeouts":  so.timeouts.Load(),
	})
	os.Exit(exit)
}

// soakObserver aggregates the sweep live: the embedded Tracker follows
// the campaign slots, and the atomic tallies (fed by CampaignDone, read by
// the statusz registry) expose the robustness counters — including the
// watchdog firings — while the sweep runs. When a ledger is configured
// it also checkpoints every completed row as a c3-run/v1 record, which
// is what -resume replays.
type soakObserver struct {
	*obs.Tracker
	registry *trace.Registry

	ledgerPath string
	rowSuffix  string

	forbidden atomic.Uint64
	poisoned  atomic.Uint64
	crashed   atomic.Uint64
	hangs     atomic.Uint64
	timeouts  atomic.Uint64
	errors    atomic.Uint64
}

func newSoakObserver(ledgerPath, rowSuffix string) *soakObserver {
	o := &soakObserver{
		Tracker: obs.NewTracker(), registry: trace.NewRegistry(),
		ledgerPath: ledgerPath, rowSuffix: rowSuffix,
	}
	o.registry.Counter("soak.forbidden", o.forbidden.Load)
	o.registry.Counter("soak.poisoned", o.poisoned.Load)
	o.registry.Counter("soak.crashed", o.crashed.Load)
	o.registry.Counter("soak.watchdog_firings", o.hangs.Load)
	o.registry.Counter("soak.timeouts", o.timeouts.Load)
	o.registry.Counter("soak.errors", o.errors.Load)
	return o
}

// CampaignDone implements litmus.SoakRowObserver; it runs concurrently
// from the campaign slots (AppendLedger's single O_APPEND write keeps
// concurrent checkpoints whole).
func (o *soakObserver) CampaignDone(_ int, row litmus.SoakRun) {
	o.forbidden.Add(uint64(row.Forbidden))
	o.poisoned.Add(uint64(row.Poisoned))
	o.crashed.Add(uint64(row.Crashed))
	o.hangs.Add(uint64(row.Hangs))
	if row.TimedOut {
		o.timeouts.Add(1)
	} else if row.Err != "" && !row.Interrupted {
		o.errors.Add(1)
	}
	// Checkpoint executed rows only: resumed rows are already in the
	// ledger, interrupted rows have no verdict to cache.
	if o.ledgerPath == "" || row.Resumed || row.Interrupted {
		return
	}
	rowKey := litmus.RowLabel(row.Test, row.Plan, row.Seed) + "|" + o.rowSuffix
	if err := campaign.AppendRowRecord(o.ledgerPath, "c3soak", rowKey, row); err != nil {
		fmt.Fprintf(os.Stderr, "c3soak: checkpoint: %v\n", err)
	}
}

// appendLedger writes this invocation's run-ledger record.
func appendLedger(path string, so *soakObserver, cfg litmus.SoakConfig, start time.Time, verdict string, exit int, extra map[string]any) {
	obs.AppendRun(path, start, so.registry, obs.Record{
		Tool:    "c3soak",
		Spec:    obs.SpecFromFlags("statusz", "heartbeat", "ledger", "resume"),
		Seeds:   cfg.Seeds,
		Workers: cfg.Workers,
		Verdict: verdict,
		Exit:    exit,
		Extra:   extra,
	})
}

func failUsage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3soak:", err)
		os.Exit(obs.ExitUsage)
	}
}
