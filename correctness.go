package c3

import (
	"cmp"
	"errors"
	"fmt"
	"os"

	"c3/internal/cpu"
	"c3/internal/litmus"
	"c3/internal/trace"
	"c3/internal/verif"
)

// LitmusConfig parameterizes a litmus campaign.
type LitmusConfig struct {
	// Locals are the two clusters' protocols (default mesi/mesi).
	Locals [2]string
	// Global is "cxl" (default) or "hmesi".
	Global string
	// MCMs per cluster; threads are distributed round-robin.
	MCMs [2]MCM
	// Iters is the number of randomized executions (default 100).
	Iters int
	// Unsynced strips all fences/annotations (the paper's control runs);
	// otherwise fences are kept, refined per thread MCM (ArMOR-style).
	Unsynced bool
	Seed     int64
	// Trace prints the first iteration's coherence-message trace to
	// stdout (cmd/c3litmus -trace).
	Trace bool
	// TraceJSON, when non-empty, writes the first iteration's protocol
	// trace to this file in Chrome trace-event format (open in
	// ui.perfetto.dev).
	TraceJSON string
	// Workers shards iterations across goroutines (0 = GOMAXPROCS,
	// 1 = serial); results are identical for every worker count.
	Workers int
	// Faults arms the cross-cluster fault injector from a plan spec —
	// either a named preset ("light", "noisy", "stall", "blackout") or a
	// "drop=0.01,dup=0.01,stall=100:200,retries=8" string (see
	// ParseFaultPlan). Empty = perfect fabric.
	Faults string
	// Crash injects a host crash on top of the fault plan: a
	// "host@tick" or "host@tick:rejoin" spec (repeatable via ';').
	// Host 0 carries the collector and must survive. Equivalent to a
	// "crash=..." key inside Faults.
	Crash string
}

// LitmusResult summarizes a campaign.
type LitmusResult struct {
	Test             string
	Iters            int
	Distinct         int
	Forbidden        int
	ForbiddenExample string
	// Poisoned counts iterations that completed with a poisoned line
	// (link-retry budget exhausted under fault injection); they are
	// detected degradation, not forbidden outcomes.
	Poisoned int
	// Hangs counts watchdog firings under fault injection, by class.
	Hangs       int
	HangClasses map[string]int
	// Crashed counts iterations that lost a host to a crash plan; they
	// are excluded from forbidden-outcome checks (a dead thread's
	// registers are unconstrained) but still must converge.
	Crashed int
	// PoisonedVars histograms, per litmus variable, how often the
	// collector read it back poisoned (its only copy died with a host).
	PoisonedVars map[string]int
	// Outcomes histograms every observed outcome.
	Outcomes map[string]int
}

// LitmusTests lists the corpus (the first seven are Table IV's set).
func LitmusTests() []string {
	var out []string
	for _, t := range litmus.Tests() {
		out = append(out, t.Name)
	}
	return out
}

// RunLitmus executes one litmus campaign.
func RunLitmus(test string, cfg LitmusConfig) (*LitmusResult, error) {
	tc, ok := litmus.ByName(test)
	if !ok {
		return nil, fmt.Errorf("c3: unknown litmus test %q", test)
	}
	if cfg.Locals[0] == "" {
		cfg.Locals = [2]string{"mesi", "mesi"}
	}
	if cfg.Global == "" {
		cfg.Global = "cxl"
	}
	mode := litmus.SyncFull
	if cfg.Unsynced {
		mode = litmus.SyncNone
	}
	rcfg := litmus.RunnerConfig{
		Locals: cfg.Locals, Global: cfg.Global, MCMs: [2]cpu.MCM{cfg.MCMs[0], cfg.MCMs[1]},
		Iters: cfg.Iters, Sync: mode, BaseSeed: cfg.Seed, Workers: cfg.Workers,
	}
	plan, err := litmus.ResolveFaults(cfg.Faults, cfg.Crash)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		rcfg.Faults = plan
		rcfg.HangWatch = true
	}
	if cfg.Trace {
		rcfg.TraceTo = os.Stdout
	}
	if cfg.TraceJSON != "" {
		f, err := os.Create(cfg.TraceJSON)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		chrome := trace.NewChrome(f)
		tr := trace.New(chrome)
		chrome.Namer = tr.Label
		rcfg.Tracer = tr
		defer chrome.Close()
	}
	res, err := litmus.Run(tc, rcfg)
	if err != nil {
		return nil, err
	}
	return &LitmusResult{
		Test: res.Test, Iters: res.Iters, Distinct: res.Distinct(),
		Forbidden: res.Forbidden, ForbiddenExample: res.ForbiddenExample,
		Poisoned: res.Poisoned, Hangs: res.Hangs, HangClasses: res.HangClasses,
		Crashed: res.Crashed, PoisonedVars: res.PoisonedVars,
		Outcomes: res.Outcomes,
	}, nil
}

// VerifyConfig parameterizes exhaustive model checking. It describes
// the machine and the bounds; the checker's operational knobs (reduction
// switches, cross-checking, progress, deadlines, interrupts) are
// verif.CheckerConfig's, which c3check sets directly.
type VerifyConfig struct {
	Locals [2]string // MESI-family protocols (default mesi/mesi); rcc is an error
	Global string    // "cxl" (default) or "hmesi"
	MCMs   [2]MCM
	// TinyLLC forces CXL-cache evictions (Fig. 7 flows) into the
	// explored space.
	TinyLLC bool
	// MaxStates bounds the distinct states visited (0 = 200,000); a run
	// that reaches it reports Truncated. MaxDepth bounds a delivery path
	// (0 = 400, negative is an error) before the exploration declares a
	// livelock.
	MaxStates uint64
	MaxDepth  int
	// Unsynced strips all fences/annotations before checking, exploring
	// the relaxed executions the paper's control runs exercise. Forbidden
	// outcomes are then architecturally legal, so the predicate is skipped
	// (VerifyReport.ForbiddenSkipped) unless CheckForbidden is set.
	Unsynced bool
	// CheckForbidden evaluates the shape's forbidden-outcome predicate
	// even when Unsynced — the standard way to demonstrate witness
	// extraction on an outcome that is reachable by design.
	CheckForbidden bool
}

// CheckCounts are the exploration counters of a Verify run: distinct
// States visited, Terminals reached, full model Builds and snapshot
// Clones (the checker's cost profile), and the state-space reduction
// counters — SymmetryMerges (observed successors folded onto a visited
// state by a non-identity host/address renaming), PORSkips (successor
// expansions the partial-order reduction proved redundant) and
// SleepSkips (successors the sleep sets proved already visited).
type CheckCounts = verif.Counts

// VerifyReport summarizes an exhaustive exploration.
type VerifyReport struct {
	Test string
	CheckCounts
	// Outcomes counts the distinct terminal litmus outcomes.
	Outcomes  int
	Truncated bool
	// ForbiddenSkipped records that the shape declares a forbidden-outcome
	// predicate but it was not evaluated (Unsynced without CheckForbidden).
	ForbiddenSkipped bool
}

// VerifyError is the structured violation Verify returns: the failure
// classification plus a minimized delivery-choice witness that
// ReplayWitness (or c3check -replay) re-executes deterministically.
// Extract it with errors.As.
type VerifyError struct {
	Test string
	// Kind is "invariant", "deadlock", "livelock", or "forbidden-outcome".
	Kind string
	// Msg is the underlying failure (invariant text, forbidden outcome).
	Msg string
	// Witness is the delivery path: at each quiescent state, the index
	// into the checker's canonically ordered enabled-action list.
	Witness []uint16
	// OriginalLen is the witness length before delta-debugging; Minimized
	// reports that minimization reproduced the failure.
	OriginalLen int
	Minimized   bool

	cex *verif.Counterexample
}

func (e *VerifyError) Error() string { return e.cex.Error() }
func (e *VerifyError) Unwrap() error { return e.cex }

// modelConfig is the model Verify and ReplayWitness explore: the named
// test (verif.ModelFor) on cfg's machine, defaults filled in.
func modelConfig(test string, cfg VerifyConfig) (verif.ModelConfig, error) {
	mcfg, err := verif.ModelFor(test, cfg.Unsynced)
	if err != nil {
		return mcfg, err
	}
	mcfg.Locals, mcfg.Global, mcfg.MCMs, mcfg.TinyLLC = cfg.Locals, cfg.Global, cfg.MCMs, cfg.TinyLLC
	if mcfg.Locals[0] == "" {
		mcfg.Locals = [2]string{"mesi", "mesi"}
	}
	mcfg.Global = cmp.Or(mcfg.Global, "cxl")
	return mcfg, nil
}

// Verify exhaustively model-checks the named litmus shape on a small C3
// system, checking deadlock freedom, SWMR, Rule I's forbidden compound
// states, and the absence of forbidden outcomes. Violations come back as
// a *VerifyError carrying a minimized, replayable witness, alongside the
// report of the exploration that found it. The exploration runs on the
// calling goroutine; independent Verify calls may run concurrently.
func Verify(test string, cfg VerifyConfig) (*VerifyReport, error) {
	mcfg, err := modelConfig(test, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := verif.Check(mcfg, verif.CheckerConfig{
		MaxStates:      cfg.MaxStates,
		MaxDepth:       cfg.MaxDepth,
		CheckForbidden: cfg.CheckForbidden,
	})
	// A violation carries the exploration so far, so callers can still
	// account for what was covered.
	var cex *verif.Counterexample
	switch {
	case errors.As(err, &cex):
		err = &VerifyError{
			Test: test, Kind: cex.Kind.String(), Msg: cex.Msg,
			Witness: cex.Path, OriginalLen: cex.OriginalLen,
			Minimized: cex.Minimized, cex: cex,
		}
	case err != nil:
		return nil, err
	}
	return &VerifyReport{
		Test:             test,
		CheckCounts:      rep.Counts,
		Outcomes:         len(rep.Outcomes),
		Truncated:        rep.Truncated,
		ForbiddenSkipped: rep.ForbiddenSkipped,
	}, err
}

// ReplayReport describes what re-executing a witness did.
type ReplayReport struct {
	Test string
	// Steps decodes each delivered coherence message in order.
	Steps []string
	// Kind is "none" when the replay completes without a violation;
	// otherwise the reproduced failure ("invariant", "deadlock",
	// "forbidden-outcome"), with Msg the detail.
	Kind string
	Msg  string
	// FailedAt is the number of messages delivered when the violation
	// fired (invariants can trip mid-path).
	FailedAt int
	// Terminal reports an all-retired, fabric-empty end state; Outcome is
	// then its litmus outcome rendering.
	Terminal bool
	Outcome  string
	// EnabledAtEnd counts still-deliverable messages at the end state.
	EnabledAtEnd int
}

// ReplayWitness re-executes a violation witness from Verify (or the
// c3check witness line) against a freshly built model and reports what
// happens, step by step. Replay is deterministic: the same witness and
// configuration always reproduce the same failure.
func ReplayWitness(test string, cfg VerifyConfig, witness []uint16) (*ReplayReport, error) {
	mcfg, err := modelConfig(test, cfg)
	if err != nil {
		return nil, err
	}
	res, err := verif.Replay(mcfg, witness)
	if err != nil {
		return nil, err
	}
	rr := &ReplayReport{
		Test: test, Steps: res.Steps, Kind: res.Kind.String(), Msg: res.Msg,
		FailedAt: res.FailedAt, Terminal: res.Terminal,
		EnabledAtEnd: res.EnabledAtEnd,
	}
	if res.Terminal {
		rr.Outcome = res.Outcome.String()
	}
	return rr, nil
}
