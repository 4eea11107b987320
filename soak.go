package c3

import (
	"fmt"
	"time"

	"c3/internal/cpu"
	"c3/internal/faults"
	"c3/internal/litmus"
)

// FaultPlan describes a deterministic fault-injection plan for the
// cross-cluster CXL links (drop/duplication/delay rates, stall windows,
// retry budget). The zero value is a perfect fabric.
type FaultPlan = faults.Plan

// ParseFaultPlan resolves a fault-plan spec: a named preset ("light",
// "noisy", "stall", "blackout", "crash", "crash-rejoin", "crash-noisy"
// — see FaultPlans) or a key=value string such as
// "drop=0.01,dup=0.01,delay=0.1,delaymax=200,stall=100:900,
// retries=8,seed=7,crash=1@2500" (crash values are host@tick[:rejoin]).
func ParseFaultPlan(spec string) (FaultPlan, error) {
	p, err := litmus.ResolvePlan(spec)
	return p.Plan, err
}

// FaultPlans lists the named fault-plan presets.
func FaultPlans() []string {
	var out []string
	for _, p := range litmus.DefaultPlans() {
		out = append(out, p.Name)
	}
	for _, p := range litmus.CrashPlans() {
		out = append(out, p.Name)
	}
	return out
}

// CrashPlans lists just the host-crash preset names (the crash sweep).
func CrashPlans() []string {
	var out []string
	for _, p := range litmus.CrashPlans() {
		out = append(out, p.Name)
	}
	return out
}

// SoakConfig parameterizes a soak campaign: litmus tests x fault plans x
// seeds, each run as a full campaign on the unreliable fabric with hang
// watchdogs armed. Zero values select the Table IV tests, all named
// presets, seed 1, 25 iterations.
type SoakConfig struct {
	Tests []string // litmus tests (default: Table IV set)
	Plans []string // plan names or specs (default: all presets)
	Seeds []int64  // campaign base seeds (default: {1})
	Iters int      // iterations per campaign (default 25)

	Locals  [2]string // cluster protocols (default mesi/mesi)
	Global  string    // "cxl" (default) or "hmesi"
	MCMs    [2]MCM
	Workers int           // campaign fan-out (0 = GOMAXPROCS); reports are identical
	Timeout time.Duration // wall-clock bound for the sweep (0 = none)
	// TaskTimeout bounds each campaign attempt's wall clock; expired
	// attempts are retried up to Retries times, then recorded as TIMEOUT
	// rows (0 = none).
	TaskTimeout time.Duration
	// Retries is how many extra attempts a timed-out or panicked campaign
	// gets before its row is recorded as TIMEOUT/ERROR. Attempts are
	// separated by capped exponential backoff. A failing campaign never
	// cancels its siblings: every campaign runs and errors become report
	// rows.
	Retries int
	// Interrupt, when non-nil, requests graceful shutdown once closed:
	// running campaigns stop at their next poll, unstarted ones are
	// skipped, and the report marks the cut rows INTERRUPTED.
	Interrupt <-chan struct{}
	// Completed seeds the sweep with rows checkpointed by a previous run,
	// keyed by RowLabel — the c3soak -resume path. Matching campaigns are
	// not executed; the cached row lands in the report marked Resumed.
	Completed map[string]SoakRun
	// Observer, when non-nil, receives the campaign plan and lifecycle
	// events for live introspection (obs.Tracker implements it; see
	// c3soak -statusz). It can never affect the report.
	Observer SoakObserver
}

// SoakRun is one campaign row of a SoakReport.
type SoakRun = litmus.SoakRun

// RowLabel renders the stable identity of one campaign row
// ("MP/light/seed1") — the key of SoakConfig.Completed and the prefix of
// the ledger's row checkpoint keys.
func RowLabel(test, plan string, seed int64) string {
	return litmus.RowLabel(test, plan, seed)
}

// SoakObserver observes a soak sweep for live introspection: the
// campaign label plan up front, then concurrent start/done events, one
// pair per report row.
type SoakObserver = litmus.SoakObserver

// SoakReport is the campaign result table: Render() is byte-identical
// for every worker count, OK() is the robustness verdict (every run
// passed coherence checks or reported detected degradation).
type SoakReport = litmus.SoakReport

// RunSoak executes the soak sweep.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	var plans []litmus.NamedPlan
	for _, spec := range cfg.Plans {
		p, err := litmus.ResolvePlan(spec)
		if err != nil {
			return nil, fmt.Errorf("c3: %w", err)
		}
		plans = append(plans, p)
	}
	return litmus.RunSoak(litmus.SoakConfig{
		Tests:       cfg.Tests,
		Plans:       plans,
		Seeds:       cfg.Seeds,
		Iters:       cfg.Iters,
		Locals:      cfg.Locals,
		Global:      cfg.Global,
		MCMs:        [2]cpu.MCM{cfg.MCMs[0], cfg.MCMs[1]},
		Workers:     cfg.Workers,
		Timeout:     cfg.Timeout,
		TaskTimeout: cfg.TaskTimeout,
		Retries:     cfg.Retries,
		Interrupt:   cfg.Interrupt,
		Completed:   cfg.Completed,
		Observer:    cfg.Observer,
	})
}
