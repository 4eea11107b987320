package litmus

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"c3/internal/cpu"
	"c3/internal/faults"
	"c3/internal/sim"
)

// NamedPlan pairs a fault plan with a stable display name for reports.
type NamedPlan struct {
	Name string
	Plan faults.Plan
}

// DefaultPlans is the standard soak sweep: from light line noise up to a
// full link blackout window. The blackout window (100% drop for the
// first 60k cycles) outlives the shim's entire retry budget on a
// Table III cross link (~25k cycles), so early transactions must poison;
// traffic after the window recovers normally.
func DefaultPlans() []NamedPlan {
	return []NamedPlan{
		{Name: "light", Plan: faults.Plan{Rates: faults.Rates{Drop: 0.01, Dup: 0.01}}},
		{Name: "noisy", Plan: faults.Plan{Rates: faults.Rates{Drop: 0.05, Dup: 0.05, Delay: 0.10, DelayMax: 200}}},
		{Name: "stall", Plan: faults.Plan{Rates: faults.Rates{Drop: 0.02, Stalls: []faults.Window{{From: 2000, To: 12000}}}}},
		{Name: "blackout", Plan: faults.Plan{Rates: faults.Rates{Stalls: []faults.Window{{From: 0, To: 60_000}}}}},
	}
}

// CrashPlans is the host-crash sweep: a clean fabric with a mid-run
// host-1 crash, the same crash with a later rejoin window, and a crash
// layered over line noise (reclamation must still converge when the
// peer-dead declaration itself rides a lossy fabric). Crash ticks are
// plan constants, so the sweep stays deterministic.
func CrashPlans() []NamedPlan {
	crash := func(at, rejoin int64) faults.Plan {
		var p faults.Plan
		p.CrashHost(1, sim.Time(at))
		if rejoin != 0 {
			p.Crashes[0].Rejoin = sim.Time(rejoin)
		}
		return p
	}
	noisyCrash := crash(2500, 0)
	noisyCrash.Rates = faults.Rates{Drop: 0.02, Dup: 0.02}
	return []NamedPlan{
		{Name: "crash", Plan: crash(2500, 0)},
		{Name: "crash-rejoin", Plan: crash(2500, 40_000)},
		{Name: "crash-noisy", Plan: noisyCrash},
	}
}

// PlanByName finds one of the default or crash plans.
func PlanByName(name string) (NamedPlan, bool) {
	for _, p := range DefaultPlans() {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range CrashPlans() {
		if p.Name == name {
			return p, true
		}
	}
	return NamedPlan{}, false
}

// ResolvePlan resolves one plan spec, as every tool's -plans or -faults
// flag takes it: a preset name (PlanByName) or a raw fault spec such as
// "drop=0.01,dup=0.01", which then also names the plan in reports.
func ResolvePlan(spec string) (NamedPlan, error) {
	if p, ok := PlanByName(spec); ok {
		return p, nil
	}
	p, err := faults.ParsePlan(spec)
	if err != nil {
		return NamedPlan{}, fmt.Errorf("fault plan %q: %w", spec, err)
	}
	return NamedPlan{Name: spec, Plan: p}, nil
}

// ResolveFaults resolves the -faults and -crash flags of c3sim and
// c3litmus into one plan: faultSpec through ResolvePlan, then each
// ';'-separated host@tick[:rejoin] spec of crash layered on top of it.
// Both empty is a perfect fabric (nil). An error names its flag.
func ResolveFaults(faultSpec, crash string) (*faults.Plan, error) {
	if faultSpec == "" && crash == "" {
		return nil, nil
	}
	var plan faults.Plan
	if faultSpec != "" {
		p, err := ResolvePlan(faultSpec)
		if err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
		plan = p.Plan
	}
	if crash != "" {
		for _, spec := range strings.Split(crash, ";") {
			spec = strings.TrimSpace(spec)
			if strings.Contains(spec, ",") {
				return nil, fmt.Errorf("-crash: %q: want host@tick or host@tick:rejoin (other fault keys belong in -faults)", spec)
			}
			c, err := faults.ParseCrash(spec)
			if err != nil {
				return nil, fmt.Errorf("-crash: %w", err)
			}
			plan.Crashes = append(plan.Crashes, c)
		}
	}
	return &plan, nil
}

// SoakConfig describes one soak campaign: the cross product of litmus
// tests x fault plans x base seeds, each run as a full (synced) campaign
// on the unreliable fabric with per-iteration hang watchdogs armed. It
// is the one description of a sweep: c3soak runs it, and the
// distributed coordinator serves it to its workers as JSON. The fields
// tagged json:"-" belong to one process's run, not to the sweep, and
// stay off the wire.
type SoakConfig struct {
	// Tests to run (default: the Table IV set).
	Tests []string
	// Plans to sweep (default: DefaultPlans).
	Plans []NamedPlan
	// Seeds are the campaign base seeds (default: {1}).
	Seeds []int64
	// Iters per campaign (default 25; soak cost is Tests x Plans x
	// Seeds x Iters full system runs).
	Iters int
	// Locals / Global / MCMs mirror RunnerConfig (defaults mesi/mesi,
	// cxl, weak/weak).
	Locals [2]string
	Global string
	MCMs   [2]cpu.MCM
	// Workers is the number of in-process slots draining the sweep's
	// queue (0 = GOMAXPROCS, 1 = serial). Reports are byte-identical for
	// every worker count; a failing campaign never cancels its siblings.
	Workers int `json:"-"`
	// Timeout bounds the sweep's wall clock (0 = none). Campaigns that
	// have not completed when it expires become "timeout" error rows
	// (attempts already running finish); the cut point depends on the
	// host machine, so reports are only byte-identical across worker
	// counts when the sweep finishes in time — the timeout is a failure
	// path, not a schedule. The report is still produced in full
	// (completed rows plus timeout rows) and SoakReport.TimedOut flags
	// the abort, so callers can flush the partial result and record a
	// "timeout" verdict instead of exiting silently.
	Timeout time.Duration `json:"-"`
	// TaskTimeout bounds each campaign attempt's wall clock (0 = none):
	// a single wedged seed then burns its own budget, not the sweep's.
	// An expired attempt spends a retry (see Retries); the last one
	// leaves a TIMEOUT row.
	TaskTimeout time.Duration
	// Retries is the one failure budget: how many failed attempts a
	// campaign may retry — task-deadline cuts and panics here, plus
	// lease expiries and failed hand-backs under a coordinator — each
	// after a capped exponential backoff (see RetryBackoffBase). The next
	// failure records the row as TIMEOUT/ERROR. Deterministic failures
	// (wedges, silent violations) are never retried — rerunning the same
	// seeds reproduces them exactly. Default 0.
	Retries int
	// Interrupt, when non-nil, requests graceful shutdown once closed:
	// in-flight campaigns stop at their next poll, unstarted ones never
	// run, and both become INTERRUPTED rows in the flushed partial
	// report (which callers can checkpoint and later resume).
	Interrupt <-chan struct{} `json:"-"`
	// Completed seeds the sweep with rows checkpointed by a previous run
	// (keyed by RowLabel): matching campaigns are not executed — the
	// cached row lands in the report verbatim, marked Resumed. This is
	// the -resume path; with every row cached the report is
	// byte-identical to an uninterrupted run.
	Completed map[string]SoakRun `json:"-"`
	// Observer, when non-nil, receives the campaign plan and per-campaign
	// lifecycle events for live introspection (c3soak -statusz). Start/
	// done events arrive concurrently from the slots; the observer can
	// never affect the report.
	Observer SoakObserver `json:"-"`

	// retryBackoff overrides the queue's retry backoff base (tests; 0 =
	// RetryBackoffBase).
	retryBackoff time.Duration
	// failAttempt, when non-nil, injects an abort into campaign attempts
	// before they execute — the deterministic stand-in for a wall-clock
	// cut in retry tests. Attempts are numbered from 1.
	failAttempt func(label string, attempt int) error
}

// RowLabel renders the stable identity of one campaign row within a
// sweep ("MP/light/seed1") — the key the observer plan, the report,
// and checkpoint resume all share.
func RowLabel(test, plan string, seed int64) string {
	return fmt.Sprintf("%s/%s/seed%d", test, plan, seed)
}

// SoakObserver observes a soak sweep from the outside: Plan announces
// the campaign labels ("test/plan/seed") in job order before the sweep
// starts; then every report row — executed, resumed from a checkpoint,
// or cut by a shutdown — reaches TaskStarted and TaskDone exactly once
// each (TaskStarted when its first attempt starts, TaskDone when its
// row is final). Calls arrive concurrently from the slots, so
// implementations must be concurrency-safe. TaskDone's err is always
// nil: a failed campaign is a row, not an error. obs.Tracker implements
// it.
type SoakObserver interface {
	Plan(labels []string)
	TaskStarted(i int)
	TaskDone(i int, err error)
}

// SoakRowObserver is optionally implemented by a SoakObserver to
// additionally receive each final row, right after its TaskDone — the
// feed for live hang/poison/forbidden tallies and checkpoints.
type SoakRowObserver interface {
	CampaignDone(i int, row SoakRun)
}

// SoakRun is one campaign's row in the report.
type SoakRun struct {
	Test string
	Plan string
	Seed int64

	Iters     int
	Distinct  int
	Forbidden int // silent coherence violations among clean iterations
	Poisoned  int // iterations degraded to a detected poisoned line
	Crashed   int // iterations that lost a host to a crash plan
	Hangs     int // watchdog firings (classified, not fatal)
	Classes   string
	Err       string // campaign abort (wedge or captured panic)
	// TimedOut marks a campaign a wall-clock bound cut off — either the
	// sweep's Timeout before it completed, or its own TaskTimeout after
	// exhausting Retries (Err carries the detail).
	TimedOut bool
	// Interrupted marks a row a graceful shutdown cut off before it
	// completed. The row was not executed to a verdict, so checkpoint
	// writers skip it and -resume re-runs it.
	Interrupted bool
	// Attempts counts executions of the campaign (1 = first try
	// produced the verdict; >1 = the retry path ran). Deliberately
	// absent from Render so a retried row reads byte-identical to a
	// first-try row.
	Attempts int
	// Resumed marks a row injected from a previous run's checkpoint
	// (SoakConfig.Completed) rather than executed; checkpoint writers
	// must not re-ledger it. Never rendered.
	Resumed bool `json:",omitempty"`
}

// ok reports whether the run upheld the robustness contract: it finished
// and every iteration either passed coherence checks or flagged its
// degradation — no silent wrong value, no panic.
func (r *SoakRun) ok() bool { return r.Err == "" && r.Forbidden == 0 }

// SoakReport aggregates a soak campaign.
type SoakReport struct {
	Runs []SoakRun
}

// OK reports whether every run upheld the contract.
func (r *SoakReport) OK() bool {
	for i := range r.Runs {
		if !r.Runs[i].ok() {
			return false
		}
	}
	return true
}

// TimedOut reports whether the sweep's wall-clock bound cut off any
// campaign.
func (r *SoakReport) TimedOut() bool {
	for i := range r.Runs {
		if r.Runs[i].TimedOut {
			return true
		}
	}
	return false
}

// Interrupted reports whether a graceful shutdown cut off any campaign
// (the report is a resumable partial).
func (r *SoakReport) Interrupted() bool {
	for i := range r.Runs {
		if r.Runs[i].Interrupted {
			return true
		}
	}
	return false
}

// Verdict maps the report onto the run-ledger verdict vocabulary:
// "fail" on a silent violation or an aborted (non-timeout) campaign,
// "interrupted" when a graceful shutdown flushed a resumable partial,
// "timeout" when the only failures are wall-clock cutoffs (the partial
// report is still rendered), "pass" otherwise.
func (r *SoakReport) Verdict() string {
	verdict := "pass"
	for i := range r.Runs {
		run := &r.Runs[i]
		switch {
		case run.ok():
		case run.Interrupted:
			verdict = "interrupted"
		case !run.TimedOut:
			return "fail"
		case verdict == "pass":
			verdict = "timeout"
		}
	}
	return verdict
}

// Render produces the deterministic report table.
func (r *SoakReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-12s %6s %7s %9s %9s %9s %8s %6s  %s\n",
		"test", "plan", "seed", "iters", "distinct", "forbidden", "poisoned", "crashed", "hangs", "status")
	for i := range r.Runs {
		run := &r.Runs[i]
		status := "ok"
		switch {
		case run.Interrupted:
			status = "INTERRUPTED: " + run.Err
		case run.TimedOut:
			status = "TIMEOUT: " + run.Err
		case run.Err != "":
			status = "ERROR: " + run.Err
		case run.Forbidden > 0:
			status = "FORBIDDEN"
		case run.Poisoned > 0:
			status = "degraded"
		case run.Crashed > 0:
			status = "survived"
		}
		if run.Classes != "" {
			status += " [" + run.Classes + "]"
		}
		fmt.Fprintf(&b, "%-8s %-12s %6d %7d %9d %9d %9d %8d %6d  %s\n",
			run.Test, run.Plan, run.Seed, run.Iters, run.Distinct,
			run.Forbidden, run.Poisoned, run.Crashed, run.Hangs, status)
	}
	switch r.Verdict() {
	case "pass":
		b.WriteString("SOAK PASS: every run passed coherence checks or reported detected degradation\n")
	case "timeout":
		b.WriteString("SOAK TIMEOUT: wall-clock bound cut the sweep short; completed rows above are valid\n")
	case "interrupted":
		b.WriteString("SOAK INTERRUPTED: graceful shutdown flushed this partial report; completed rows are checkpointed — rerun with -resume to finish\n")
	default:
		b.WriteString("SOAK FAIL: silent coherence violation or aborted campaign above\n")
	}
	return b.String()
}

// classesString renders a hang-class histogram deterministically.
func classesString(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// WithDefaults returns cfg with the sweep-shape defaults applied (Table
// IV tests, all default plans, seed 1, 25 iterations, mesi/mesi under
// cxl). Both RunSoak and the distributed coordinator normalize through
// it, so "the default sweep" means the same job list everywhere.
func (cfg SoakConfig) WithDefaults() SoakConfig {
	if len(cfg.Tests) == 0 {
		cfg.Tests = TableIVNames()
	}
	if len(cfg.Plans) == 0 {
		cfg.Plans = DefaultPlans()
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1}
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 25
	}
	if cfg.Locals[0] == "" {
		cfg.Locals = [2]string{"mesi", "mesi"}
	}
	if cfg.Global == "" {
		cfg.Global = "cxl"
	}
	return cfg
}

// Campaign identifies one shard of a soak sweep: a (test, plan, seed)
// cell, the unit the Queue schedules — in process or across a fleet.
type Campaign struct {
	Test Test
	Plan NamedPlan
	Seed int64
}

// Label renders the shard's stable identity ("MP/light/seed1").
func (c Campaign) Label() string { return RowLabel(c.Test.Name, c.Plan.Name, c.Seed) }

// Campaigns expands a (defaults-applied) config into the sweep's job
// list in canonical report order: tests outermost, then plans, then
// seeds. Every consumer of the sweep — RunSoak's queue, the distributed
// coordinator's queue, its workers — must share this order; it is what
// makes a merged distributed report byte-identical to a single-process
// run. A row label may appear once: a repeated test, plan or seed would
// run one campaign twice and checkpoint it twice under one key.
func Campaigns(cfg SoakConfig) ([]Campaign, error) {
	cfg = cfg.WithDefaults()
	jobs := make([]Campaign, 0, len(cfg.Tests)*len(cfg.Plans)*len(cfg.Seeds))
	seen := make(map[string]bool, cap(jobs))
	for _, name := range cfg.Tests {
		t, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("soak: unknown litmus test %q", name)
		}
		for _, p := range cfg.Plans {
			for _, s := range cfg.Seeds {
				c := Campaign{Test: t, Plan: p, Seed: s}
				l := c.Label()
				if seen[l] {
					return nil, fmt.Errorf("soak: campaign %s appears twice in the sweep", l)
				}
				seen[l] = true
				jobs = append(jobs, c)
			}
		}
	}
	return jobs, nil
}

// NewSoakQueue is NewQueue for a sweep's campaigns. Rows in completed,
// checkpointed by an earlier run under their RowLabel, are born done,
// marked Resumed, and never leased.
func NewSoakQueue(jobs []Campaign, completed map[string]SoakRun, leaseTTL time.Duration, retries int, now func() time.Time) *Queue[SoakRun] {
	q := NewQueue[SoakRun](soakShape(jobs), len(jobs), leaseTTL, retries, now)
	for i, j := range jobs {
		if row, ok := completed[j.Label()]; ok {
			row.Resumed = true
			q.Complete(i, row) //nolint:errcheck // i indexes jobs
		}
	}
	return q
}

// soakShape makes the rows a soak queue writes itself, each naming its
// campaign.
type soakShape []Campaign

// Spent ends a campaign in its last failure's row: a TIMEOUT row naming
// the attempt count, the panic's error row, or for a lease expiry a
// loud "quarantined" error row.
func (s soakShape) Spent(i int, failed *SoakRun, attempt, of int, lastWorker string) SoakRun {
	row := SoakRun{Attempts: attempt,
		Err: fmt.Sprintf("quarantined: %d lease failures (last worker %q)", attempt, lastWorker)}
	if failed != nil {
		row = *failed
		if row.TimedOut {
			row.Err = fmt.Sprintf("%s (attempt %d of %d)", row.Err, attempt, of)
		}
	}
	c := s[i]
	row.Test, row.Plan, row.Seed = c.Test.Name, c.Plan.Name, c.Seed
	return row
}

// Unfinished is an INTERRUPTED row, or a TIMEOUT row when the sweep
// bound stopped the queue.
func (s soakShape) Unfinished(i, _ int, timeout time.Duration) SoakRun {
	c := s[i]
	row := SoakRun{Test: c.Test.Name, Plan: c.Plan.Name, Seed: c.Seed}
	if timeout > 0 {
		row.TimedOut = true
		row.Err = fmt.Sprintf("timeout: sweep exceeded %v before campaign completed", timeout)
	} else {
		row.Interrupted = true
		row.Err = "interrupted before campaign completed"
	}
	return row
}

// RunSoak executes the soak sweep: its campaigns become jobs on a
// Queue, and a Drain of Workers in-process slots runs every attempt
// through Campaign.Attempt — the queue and executor the distributed
// coordinator and its workers use, minus the HTTP. Rows in
// cfg.Completed are born done and never run. Campaign-level failures
// (wedges, spent retries, captured panics) become report rows, never
// process crashes; the returned error is reserved for configuration
// mistakes (unknown test names).
func RunSoak(cfg SoakConfig) (*SoakReport, error) { return runSoak(cfg, time.Now) }

// runSoak is RunSoak with the queue reading the clock now (tests push a
// fake one past any lease lifetime).
func runSoak(cfg SoakConfig, now func() time.Time) (*SoakReport, error) {
	cfg = cfg.WithDefaults()
	jobs, err := Campaigns(cfg)
	if err != nil {
		return nil, err
	}
	// No lease TTL: an in-process slot cannot go silent, so its lease
	// never expires and nothing runs twice.
	q := NewSoakQueue(jobs, cfg.Completed, 0, cfg.Retries, now)
	if cfg.retryBackoff > 0 {
		q.backoff = cfg.retryBackoff
	}
	// Parallelism lives at the campaign level; each campaign runs its
	// iterations serially (Workers: 1 in Attempt) so the worker budget
	// is not oversubscribed and every row is independent of scheduling.
	d := Drain[SoakRun]{
		Slots:     cfg.Workers,
		Attempt:   func(i, n int) (SoakRun, AttemptKind) { return jobs[i].Attempt(cfg, n) },
		Interrupt: cfg.Interrupt,
		Timeout:   cfg.Timeout,
	}
	if o := cfg.Observer; o != nil {
		labels := make([]string, len(jobs))
		for i, j := range jobs {
			labels[i] = j.Label()
		}
		o.Plan(labels)
		rowObs, _ := o.(SoakRowObserver)
		d.Started = o.TaskStarted
		d.Done = func(i int, row SoakRun) {
			o.TaskDone(i, nil)
			if rowObs != nil {
				rowObs.CampaignDone(i, row)
			}
		}
	}
	return &SoakReport{Runs: d.Run(q)}, nil
}

// Attempt runs one attempt of campaign c: a full, fresh, seed-determined
// litmus campaign on cfg's machine under its per-attempt budget
// (TaskTimeout, Interrupt), shielded by a recover so one poisoned code
// path can never take down a sweep. Because every attempt is
// seed-determined, a success on attempt k is byte-identical to a
// first-try success. The row carries the verdict; kind AttemptRetry
// marks a failure a rerun may cure — a task-deadline cut or a panic —
// which the caller hands back to the queue (Queue.Release) instead of
// recording, so the queue alone decides between another attempt and the
// final row. An interrupted attempt returns an Interrupted row, kind
// AttemptHandback. RunSoak's slots and the distributed workers both run
// every attempt through here.
func (c Campaign) Attempt(cfg SoakConfig, attempt int) (row SoakRun, kind AttemptKind) {
	row = SoakRun{Test: c.Test.Name, Plan: c.Plan.Name, Seed: c.Seed, Attempts: attempt}
	var res *Result
	var err error
	if cfg.failAttempt != nil {
		err = cfg.failAttempt(c.Label(), attempt)
	}
	if err == nil {
		rcfg := RunnerConfig{
			Locals:    cfg.Locals,
			Global:    cfg.Global,
			MCMs:      cfg.MCMs,
			Iters:     cfg.Iters,
			Sync:      SyncFull,
			BaseSeed:  c.Seed,
			Workers:   1,
			Faults:    &c.Plan.Plan,
			HangWatch: true,
			Interrupt: cfg.Interrupt,
		}
		if cfg.TaskTimeout > 0 {
			rcfg.Deadline = time.Now().Add(cfg.TaskTimeout)
		}
		res, err = runSoakCampaign(c.Test, rcfg)
	}
	switch {
	case err == nil:
		row.Iters = res.Iters
		row.Distinct = res.Distinct()
		row.Forbidden = res.Forbidden
		row.Poisoned = res.Poisoned
		row.Crashed = res.Crashed
		row.Hangs = res.Hangs
		row.Classes = classesString(res.HangClasses)
	case errors.Is(err, ErrInterrupted):
		row.Interrupted, row.Err = true, err.Error()
		kind = AttemptHandback
	case errors.Is(err, ErrTaskDeadline):
		row.TimedOut, row.Err = true, err.Error()
		kind = AttemptRetry
	default:
		// Only nondeterministic aborts retry: a wall-clock cut or a
		// panic. Wedges and violations are reproduced exactly by the
		// same seeds, so rerunning them is pure waste.
		row.Err = err.Error()
		if errors.Is(err, errCampaignPanic) {
			kind = AttemptRetry
		}
	}
	return row, kind
}

// errCampaignPanic classifies a panic captured inside a campaign; it is
// retryable (panics can stem from transient conditions) unlike a
// deterministic wedge.
var errCampaignPanic = errors.New("campaign panicked")

// runSoakCampaign shields a campaign behind a recover so one poisoned
// code path can never take down the whole sweep: a panic becomes that
// row's error, which Render reports and OK() fails.
func runSoakCampaign(t Test, cfg RunnerConfig) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: %v", errCampaignPanic, p)
		}
	}()
	return Run(t, cfg)
}
