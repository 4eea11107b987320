// Command c3check model-checks the C3 controllers: exhaustive
// exploration of message-delivery interleavings on a small two-cluster
// system, verifying deadlock freedom, the SWMR invariant, Rule I's
// forbidden compound states, and litmus outcomes — the paper's
// Murphi-based formal verification (Sec. VI-A), applied directly to the
// runtime controllers.
//
// On a violation, c3check prints a minimized witness — the sequence of
// delivery choices reproducing the failure — as a "witness:" line;
// -witness additionally decodes each delivered message, and
// -replay re-executes a witness step by step.
//
// Usage:
//
//	c3check                          # MP+SB+LB+S+R+2_2W on MESI-CXL-MESI
//	c3check -test IRIW -local1 moesi -max 2000000
//	c3check -tiny                    # force CXL-cache evictions (Fig. 7)
//	c3check -test MP -unsynced -witness   # witness a relaxed outcome
//	c3check -test MP -unsynced -replay 1,0,2
//	c3check -statusz :8080           # watch a long exploration live
//	c3check -test MP+3W -max 10000   # reductions let this complete
//	c3check -test MP+3W -max 10000 -por off   # without POR it stops at 10,000 states
//	c3check -crosscheck -test MP     # audit the reductions' soundness
//	c3check -outcomes -test MP       # print the terminal-outcome set
//	c3check -test MP,SB,IRIW -j 2    # explore two tests at a time
//
// Parallelism: -test takes a comma-separated list, each test a job on
// the lease queue c3soak drains, and -j sets how many explore at once (0
// = GOMAXPROCS). Each exploration runs on one goroutine and each test's
// lines print in test order, so the output is the same at every -j.
//
// State-space reduction: the checker fingerprints each state with its
// bookkeeping excluded and interchangeable hosts and addresses renamed
// to a canonical form (symmetry reduction), prunes interleavings of
// independent deliveries (partial-order reduction), and skips
// successors a sibling already generated (sleep sets); -por=off turns
// the last two off. -crosscheck runs every test reduced and again with
// all three off, and fails unless the outcome sets and verdicts are
// equal; -outcomes prints a test's outcome set.
//
// Observability: -statusz serves live exploration counters (states,
// frontier, depth) as JSON plus pprof/expvar, -heartbeat prints a
// progress line to stderr, and every invocation appends a record to the
// run ledger (-ledger, default $C3_LEDGER or c3runs.jsonl; empty
// disables). None of these affect exploration or its verdict.
//
// Resilience: -task-timeout bounds each test's exploration wall clock;
// the queue retries a cut attempt after its capped exponential backoff
// until -retries extra attempts are spent, and then the test is recorded
// TIMEOUT (partial state counts still print). Under a Go runtime memory limit
// (GOMEMLIMIT, e.g. GOMEMLIMIT=2GiB), every running exploration starts
// shedding frontier snapshots once the process heap crosses 80% of it —
// degrading to replay-from-root instead of OOMing, with the degradation
// reported per test. A panic in one test's exploration is that test's
// FAIL; the other tests still run. SIGINT/SIGTERM stop the running
// explorations at their next poll, print the partial results (unstarted
// tests read INTERRUPTED before start), and exit 3; a second signal
// kills immediately.
//
// c3check drives internal/verif directly: it resolves every -test name
// to a verif.ModelConfig before any exploration starts, runs verif.Check
// (or verif.Replay) under one verif.CheckerConfig, and renders
// verif.Report and *verif.Counterexample.
//
// Exit status: 0 no violation (or -replay reproduced one), 1 violation
// found or a test timed out (or -replay failed to reproduce), 2 usage
// error (an unknown test name included), 3 interrupted by
// SIGINT/SIGTERM (partial results printed).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"c3/internal/cpu"
	"c3/internal/litmus"
	"c3/internal/obs"
	"c3/internal/system"
	"c3/internal/trace"
	"c3/internal/verif"
)

func main() {
	test := flag.String("test", "", "litmus shapes to check, comma-separated (default: MP,SB,LB,S,R,2_2W)")
	var machineFlags system.MachineFlags
	machineFlags.Register(flag.CommandLine)
	tiny := flag.Bool("tiny", false, "tiny CXL cache: explore eviction flows")
	maxStates := flag.Uint64("max", 500_000, "state budget")
	maxDepth := flag.Int("max-depth", 0, "depth bound before declaring livelock (0 = default 400)")
	workers := flag.Int("j", 0, "tests explored at once, one goroutine each (0 = GOMAXPROCS, 1 = serial; output is identical)")
	flag.IntVar(workers, "workers", 0, "alias for -j")
	unsynced := flag.Bool("unsynced", false,
		"strip fences and check the forbidden predicate anyway (witness demo on relaxed outcomes)")
	witness := flag.Bool("witness", false, "decode each witness step (delivered message) on violation")
	replay := flag.String("replay", "",
		"re-execute a comma-separated witness path against -test instead of exploring")
	replayRoot := flag.Bool("replay-from-root", false,
		"explore by prefix re-execution instead of snapshot cloning (cross-check mode)")
	por := flag.String("por", "on", "partial-order reduction and sleep sets: on|off")
	crossCheck := flag.Bool("crosscheck", false,
		"run each test reduced AND unreduced and fail unless the verdicts and outcome sets agree (soundness audit; slow)")
	outcomes := flag.Bool("outcomes", false,
		"print each test's sorted terminal-outcome set, one 'outcome:' line per outcome (for reduction-soundness diffs)")
	taskTimeout := flag.Duration("task-timeout", 0, "wall-clock bound per test exploration (0 = none); expired attempts retry, then the test records TIMEOUT")
	retries := flag.Int("retries", 1, "extra attempts a timed-out test exploration gets")
	statusz := flag.String("statusz", "", "serve live introspection (/statusz JSON, /metricsz, pprof, expvar) on this address, e.g. :8080 or 127.0.0.1:0")
	heartbeat := flag.Duration("heartbeat", 0, "print a progress line to stderr at this interval (0 = off)")
	ledger := flag.String("ledger", obs.DefaultLedgerPath(), "append a JSONL run record to this file (empty = off)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "c3check: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	if *taskTimeout < 0 || *retries < 0 || *maxDepth < 0 {
		fmt.Fprintln(os.Stderr, "c3check: -task-timeout, -retries and -max-depth must be non-negative")
		os.Exit(obs.ExitUsage)
	}
	if *por != "on" && *por != "off" {
		fmt.Fprintln(os.Stderr, "c3check: -por takes on|off")
		os.Exit(obs.ExitUsage)
	}
	machine, err := machineFlags.Machine()
	for i, name := range machine.Locals {
		if err := verif.CheckLocal(name); err != nil {
			fmt.Fprintf(os.Stderr, "c3check: -local%d: %v\n", i, err)
			os.Exit(obs.ExitUsage)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3check:", err)
		os.Exit(obs.ExitUsage)
	}

	// Every name resolves before any exploration starts, so a typo is a
	// usage error, not a FAIL line after the other tests ran.
	tests := []string{"MP", "SB", "LB", "S", "R", "2_2W"}
	if *test != "" {
		tests = strings.Split(*test, ",")
	}
	if *replay != "" && (*test == "" || len(tests) > 1) {
		fmt.Fprintln(os.Stderr, "c3check: -replay requires a single -test")
		os.Exit(obs.ExitUsage)
	}
	models := make([]verif.ModelConfig, len(tests))
	for i, name := range tests {
		mcfg, err := verif.ModelFor(name, *unsynced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c3check:", err)
			os.Exit(obs.ExitUsage)
		}
		mcfg.Locals, mcfg.Global, mcfg.MCMs, mcfg.TinyLLC = machine.Locals, machine.Global, machine.MCMs, *tiny
		models[i] = mcfg
	}

	if *replay != "" {
		path, err := verif.ParseWitness(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "c3check: bad -replay path: %v\n", err)
			os.Exit(2)
		}
		res, err := verif.Replay(models[0], path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "c3check: replay: %v\n", err)
			os.Exit(1)
		}
		printSteps(os.Stdout, res.Steps)
		name := tests[0]
		switch {
		case res.Kind != verif.VNone:
			fmt.Printf("%-8s reproduced %s after %d steps: %s\n", name, res.Kind, res.FailedAt, res.Msg)
			return // exit 0: the witness reproduces a violation
		case res.Terminal:
			fmt.Printf("%-8s no violation: terminal outcome %s\n", name, res.Outcome)
		default:
			fmt.Printf("%-8s no violation: %d actions still enabled after %d steps\n",
				name, res.EnabledAtEnd, res.FailedAt)
		}
		os.Exit(1)
	}

	ccfg := verif.CheckerConfig{
		MaxStates:      *maxStates,
		MaxDepth:       *maxDepth,
		ReplayFromRoot: *replayRoot,
		POROff:         *por == "off",
		CrossCheck:     *crossCheck,
		CheckForbidden: *unsynced,
		// Graceful shutdown: the first SIGINT/SIGTERM closes the interrupt
		// channel — the explorations stop at their next poll and the
		// partial results print. A second signal kills.
		Interrupt: obs.Interrupt("c3check", "stopping gracefully"),
	}

	// Live exploration counters: each test's OnProgress callback stores a
	// sample under a short lock, the statusz registry reads it — the
	// checker itself never waits on an HTTP reader.
	co := newCheckObserver()
	co.Plan(tests)

	stopWatch, err := obs.Watch("c3check", *statusz, *heartbeat, co.Tracker, co.registry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3check:", err)
		os.Exit(2)
	}

	sweepStart := time.Now()
	c := &checker{ccfg: ccfg, taskTimeout: *taskTimeout, retries: *retries,
		outcomes: *outcomes, witness: *witness, co: co}
	verdict := c.runAll(models, *workers, os.Stdout)
	stopWatch()
	exit := obs.ExitCode(verdict)
	total, _ := co.snapshot()
	obs.AppendRun(*ledger, sweepStart, co.registry, obs.Record{
		Tool:    "c3check",
		Spec:    obs.SpecFromFlags("statusz", "heartbeat", "ledger"),
		Workers: *workers,
		Verdict: verdict,
		Exit:    exit,
		Extra: map[string]any{
			"tests":           tests,
			"states":          total.States,
			"symmetry_merges": total.SymmetryMerges,
			"por_skips":       total.PORSkips,
			"sleep_skips":     total.SleepSkips,
		},
	})
	os.Exit(exit)
}

// checker runs c3check's test explorations with the flags' settings and
// renders each test's lines.
type checker struct {
	ccfg              verif.CheckerConfig
	taskTimeout       time.Duration
	retries           int
	outcomes, witness bool
	co                *checkObserver
}

// testRun is one test's printed lines, its obs.Verdict* verdict, and
// the exploration's report and error.
type testRun struct {
	out     []byte
	verdict string
	rep     *verif.Report
	err     error
}

// testModels are the jobs of c3check's queue, whose only self-made row
// is a test the queue stopped before it started or between attempts.
type testModels []verif.ModelConfig

// Spent returns the last failed attempt's lines: an in-process lease
// never expires, so a failure always comes with its row.
func (testModels) Spent(_ int, failed *testRun, _, _ int, _ string) testRun { return *failed }

func (m testModels) Unfinished(i, failures int, _ time.Duration) testRun {
	line := fmt.Sprintf("%-8s INTERRUPTED before start\n", m[i].Test.Name)
	if failures > 0 {
		line = fmt.Sprintf("%-8s INTERRUPTED between attempts (%d timed out): partial, no verdict\n", m[i].Test.Name, failures)
	}
	return testRun{out: []byte(line), verdict: obs.VerdictInterrupted}
}

// verify is the exploration a test runs; a test seam.
var verify = verif.Check

// attempt runs attempt n of test i's exploration and renders its lines.
// Only a wall-clock cut is worth another attempt: violations and
// interrupts are deterministic or deliberate, so their lines are final.
// A panic in the exploration is the test's FAIL, so the other tests
// still run.
func (c *checker) attempt(i, n int, mcfg verif.ModelConfig) (testRun, litmus.AttemptKind) {
	name := mcfg.Test.Name
	ccfg := c.ccfg
	ccfg.OnProgress = c.co.progress(i)
	if c.taskTimeout > 0 {
		ccfg.Deadline = time.Now().Add(c.taskTimeout)
	}
	start := time.Now()
	rep, err := recovered(mcfg, ccfg)
	w := &bytes.Buffer{}
	r := testRun{verdict: obs.VerdictPass, rep: rep, err: err}
	kind := litmus.AttemptFinal
	switch {
	case err == nil:
		status := "verified"
		if rep.Truncated {
			status = "bounded"
		}
		note := ""
		if rep.ForbiddenSkipped {
			note = " [forbidden predicate skipped: unsynced]"
		}
		if rep.MemSheds > 0 {
			note += fmt.Sprintf(" [mem pressure: shed x%d, snapshot budget %d]",
				rep.MemSheds, rep.SnapshotBudgetEnd)
		}
		if rep.SymmetryMerges > 0 || rep.PORSkips > 0 || rep.SleepSkips > 0 {
			note += fmt.Sprintf(" [reduced: %d symmetry merges, %d POR skips, %d sleep skips]",
				rep.SymmetryMerges, rep.PORSkips, rep.SleepSkips)
		}
		fmt.Fprintf(w, "%-8s %s: %d states, %d terminal, %d outcomes, %d builds + %d clones (%.1fs)%s\n",
			name, status, rep.States, rep.Terminals, len(rep.Outcomes), rep.Builds, rep.Clones,
			time.Since(start).Seconds(), note)
		if c.outcomes {
			outs := make([]string, 0, len(rep.Outcomes))
			for o := range rep.Outcomes {
				outs = append(outs, o)
			}
			sort.Strings(outs)
			for _, o := range outs {
				fmt.Fprintf(w, "outcome: %s | %s\n", name, o)
			}
		}
	case errors.Is(err, litmus.ErrInterrupted):
		r.verdict = obs.VerdictInterrupted
		fmt.Fprintf(w, "%-8s INTERRUPTED after %d states (%.1fs): partial, no verdict\n",
			name, rep.States, time.Since(start).Seconds())
	case errors.Is(err, litmus.ErrTaskDeadline):
		r.verdict, kind = obs.VerdictTimeout, litmus.AttemptRetry
		fmt.Fprintf(w, "%-8s TIMEOUT after %d states: every attempt exceeded the %v budget (%d attempts)\n",
			name, rep.States, c.taskTimeout, n)
	default:
		r.verdict = obs.VerdictViolation
		fmt.Fprintf(w, "%-8s FAIL: %v\n", name, err)
		var cex *verif.Counterexample
		if errors.As(err, &cex) {
			fmt.Fprintf(w, "witness: %s\n", verif.FormatWitness(cex.Path))
			fmt.Fprintf(w, "  (%s; %d steps, minimized from %d; replay with: c3check -test %s%s -replay %s)\n",
				cex.Kind, len(cex.Path), cex.OriginalLen, name, replayFlags(mcfg), verif.FormatWitness(cex.Path))
			if c.witness {
				if res, err := verif.Replay(mcfg, cex.Path); err != nil {
					fmt.Fprintf(w, "  witness decode failed: %v\n", err)
				} else {
					printSteps(w, res.Steps)
				}
			}
		}
	}
	r.out = w.Bytes()
	return r, kind
}

// runAll explores models as jobs on one litmus.Queue with -retries as
// its budget, drained by workers slots, and writes each test's lines to
// w in test order as soon as every earlier test has finished. Of the
// verdicts the tests reach it returns the gravest: a found violation
// outranks the shutdown that may have followed it, and an interrupt
// outranks a timeout because its result is deliberately partial.
func (c *checker) runAll(models []verif.ModelConfig, workers int, w io.Writer) string {
	var mu sync.Mutex
	final := make([]*testRun, len(models))
	next := 0
	rows := litmus.Drain[testRun]{
		Slots:     workers,
		Attempt:   func(i, n int) (testRun, litmus.AttemptKind) { return c.attempt(i, n, models[i]) },
		Interrupt: c.ccfg.Interrupt,
		Started:   c.co.TaskStarted,
		Done: func(i int, r testRun) {
			c.co.done(i, r.rep, r.err)
			mu.Lock()
			defer mu.Unlock()
			final[i] = &r
			for ; next < len(final) && final[next] != nil; next++ {
				w.Write(final[next].out)
			}
		},
	}.Run(litmus.NewQueue[testRun](testModels(models), len(models), 0, c.retries, nil))
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.verdict] = true
	}
	for _, v := range []string{obs.VerdictViolation, obs.VerdictInterrupted, obs.VerdictTimeout} {
		if seen[v] {
			return v
		}
	}
	return obs.VerdictPass
}

// recovered runs verify, turning a panic into an error that carries the
// panic value and stack.
func recovered(mcfg verif.ModelConfig, ccfg verif.CheckerConfig) (rep *verif.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, err = nil, fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return verify(mcfg, ccfg)
}

// checkObserver keeps the checker's progress for the statusz registry,
// which renders it from HTTP goroutines while the explorations run.
// Counters accumulate across the tests (total work this invocation
// did); the frontier gauge sums the running tests' frontiers and the
// depth gauge is the deepest of them.
type checkObserver struct {
	*obs.Tracker
	registry *trace.Registry

	mu sync.Mutex
	// total sums the finished tests; cur holds each running test's
	// latest sample, whose counts restart with each attempt.
	total verif.Counts
	cur   map[int]verif.Progress
}

func newCheckObserver() *checkObserver {
	o := &checkObserver{Tracker: obs.NewTracker(), registry: trace.NewRegistry(),
		cur: map[int]verif.Progress{}}
	for i, c := range o.total.Counters() {
		o.registry.Counter("check."+c.Name, func() uint64 {
			total, _ := o.snapshot()
			return *total.Counters()[i].N
		})
	}
	o.registry.Gauge("check.frontier", func() float64 { _, cur := o.snapshot(); return float64(cur.Frontier) })
	o.registry.Gauge("check.depth", func() float64 { _, cur := o.snapshot(); return float64(cur.Depth) })
	return o
}

// progress returns test i's OnProgress hook.
func (o *checkObserver) progress(i int) func(verif.Progress) {
	return func(p verif.Progress) {
		o.mu.Lock()
		o.cur[i] = p
		o.mu.Unlock()
	}
}

// snapshot returns the invocation's counts so far and the running
// tests' summed frontier and deepest depth.
func (o *checkObserver) snapshot() (verif.Counts, verif.Progress) {
	o.mu.Lock()
	defer o.mu.Unlock()
	total := o.total
	var cur verif.Progress
	for _, p := range o.cur {
		add(&total, p.Counts)
		cur.Frontier += p.Frontier
		cur.Depth = max(cur.Depth, p.Depth)
	}
	return total, cur
}

// done folds test i's final counts into the total and marks the task
// done. Small explorations finish under the progress stride, and cut or
// failed ones stop between strides, so the report (when there is one)
// is fresher than the last sample.
func (o *checkObserver) done(i int, rep *verif.Report, err error) {
	o.mu.Lock()
	last := o.cur[i].Counts
	if rep != nil {
		last = rep.Counts
	}
	add(&o.total, last)
	delete(o.cur, i)
	o.mu.Unlock()
	o.Tracker.TaskDone(i, err)
}

// add folds b into a, counter by counter.
func add(a *verif.Counts, b verif.Counts) {
	bc := b.Counters()
	for i, c := range a.Counters() {
		*c.N += *bc[i].N
	}
}

// printSteps prints a replay's decoded steps.
func printSteps(w io.Writer, steps []string) {
	for i, s := range steps {
		fmt.Fprintf(w, "  step %3d  %s\n", i, s)
	}
}

// replayFlags renders the non-default flags a -replay invocation needs
// to rebuild the same model.
func replayFlags(mcfg verif.ModelConfig) string {
	var b strings.Builder
	if mcfg.Locals[0] != "mesi" {
		fmt.Fprintf(&b, " -local0 %s", mcfg.Locals[0])
	}
	if mcfg.Locals[1] != "mesi" {
		fmt.Fprintf(&b, " -local1 %s", mcfg.Locals[1])
	}
	if mcfg.Global != "cxl" {
		fmt.Fprintf(&b, " -global %s", mcfg.Global)
	}
	for i, m := range mcfg.MCMs {
		if m != cpu.WMO {
			fmt.Fprintf(&b, " -mcm%d %s", i, strings.ToLower(m.String()))
		}
	}
	if mcfg.TinyLLC {
		b.WriteString(" -tiny")
	}
	if mcfg.Sync == litmus.SyncNone {
		b.WriteString(" -unsynced")
	}
	return b.String()
}
