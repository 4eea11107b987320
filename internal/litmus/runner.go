package litmus

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"c3/internal/cpu"
	"c3/internal/faults"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/parallel"
	"c3/internal/sim"
	"c3/internal/system"
	"c3/internal/trace"
)

// Abort classifications for campaigns cut off from the outside. Both
// are wrapped (errors.Is) into the error Run returns, so harnesses can
// tell a retryable wall-clock cut (ErrTaskDeadline) or a graceful
// shutdown (ErrInterrupted) from a deterministic wedge.
var (
	ErrTaskDeadline = errors.New("task deadline exceeded")
	ErrInterrupted  = errors.New("interrupted")
)

// pollStride is how many kernel steps an iteration executes between
// deadline/interrupt polls. Polling costs one time.Now() (and one
// non-blocking channel read) per stride; at 4096 steps that is noise,
// while still bounding abort latency to well under a millisecond of
// simulated work.
const pollStride = 4096

// RunnerConfig describes one litmus campaign: a two-cluster system, an
// MCM per cluster, and how synchronization is treated.
type RunnerConfig struct {
	// Locals are the two clusters' coherence protocols ("mesi", ...).
	Locals [2]string
	// Global is "cxl" or "hmesi".
	Global string
	// MCMs are the clusters' consistency models.
	MCMs [2]cpu.MCM
	// Iters is the number of randomized executions.
	Iters int
	Sync  SyncMode
	// BaseSeed perturbs fabric jitter and start offsets per iteration.
	BaseSeed int64
	// IssueJitter/DrainJitter override the cores' timing randomization
	// (0 -> defaults of 1200/900 cycles).
	IssueJitter, DrainJitter int
	// Workers shards Iters across that many goroutines (0 = GOMAXPROCS,
	// 1 = serial). Every iteration owns a private kernel and system, and
	// all randomness is derived per iteration from BaseSeed, so a
	// campaign's Result is byte-identical for every worker count.
	Workers int
	// TraceTo, when non-nil, receives the full coherence-message trace
	// of the first iteration (one line per delivery).
	TraceTo io.Writer
	// Tracer, when non-nil, observes the first iteration's full protocol
	// event stream (structured counterpart of TraceTo; feed it a
	// ChromeSink to open the iteration in Perfetto).
	Tracer *trace.Tracer
	// Faults, when non-nil and enabled, runs every iteration on an
	// unreliable cross-cluster fabric under this plan. The plan seed is
	// re-derived per iteration (like fabric jitter), so campaigns remain
	// byte-identical for any worker count.
	Faults *faults.Plan
	// HangWatch arms a hang watchdog on every iteration (not just the
	// traced one); firings are classified and counted in Result.Hangs /
	// Result.HangClasses instead of panicking.
	HangWatch bool
	// Deadline, when non-zero, bounds the campaign's wall clock: the
	// iteration step loops poll it every pollStride kernel steps and the
	// campaign aborts with an error wrapping ErrTaskDeadline. The cut
	// discards only in-flight work — every completed computation is
	// deterministic — so a retried campaign reproduces a first-try run
	// byte for byte.
	Deadline time.Time
	// Interrupt, when non-nil, aborts the campaign at the next poll once
	// the channel is closed (the graceful-shutdown path); the returned
	// error wraps ErrInterrupted.
	Interrupt <-chan struct{}
}

// pollAbort checks the campaign's external cut conditions; it is called
// from iteration step loops every pollStride steps.
func pollAbort(t Test, cfg *RunnerConfig, it int) error {
	if cfg.Interrupt != nil {
		select {
		case <-cfg.Interrupt:
			return fmt.Errorf("litmus %s: iteration %d: %w", t.Name, it, ErrInterrupted)
		default:
		}
	}
	if !cfg.Deadline.IsZero() && time.Now().After(cfg.Deadline) {
		return fmt.Errorf("litmus %s: iteration %d: %w", t.Name, it, ErrTaskDeadline)
	}
	return nil
}

// Result aggregates a campaign.
type Result struct {
	Test     string
	Iters    int
	Outcomes map[string]int
	// Forbidden counts forbidden outcomes among clean (non-poisoned)
	// iterations — the silent coherence violations. An iteration that
	// reported a poisoned line is tallied under Poisoned instead: its
	// data is flagged untrustworthy, which is the detected-degradation
	// contract, not a silent wrong value.
	Forbidden int
	// ForbiddenExample is one offending outcome, for diagnostics.
	ForbiddenExample string
	// Poisoned counts iterations that completed with at least one
	// poisoned line (retry exhaustion on the faulty fabric, or a host
	// crash that lost the line's only copy).
	Poisoned int
	// Crashed counts iterations in which a crash plan took a host down.
	// Crashed iterations are excluded from Forbidden evaluation: the dead
	// threads' truncated programs produce register states no consistency
	// model constrains. Convergence and poison detection still apply.
	Crashed int
	// PoisonedVars histograms, per variable, the iterations whose
	// collector read of that variable consumed poisoned data (the
	// deterministic "line lost with the crash" signal).
	PoisonedVars map[string]int
	// Hangs counts watchdog firings across iterations (HangWatch mode);
	// HangClasses histograms their classifications.
	Hangs       int
	HangClasses map[string]int
}

// Distinct reports how many distinct outcomes appeared.
func (r *Result) Distinct() int { return len(r.Outcomes) }

// Run executes one litmus campaign, sharding iterations across
// cfg.Workers goroutines. Iteration seeds are BaseSeed + it*7919 exactly
// as in a serial run, start offsets come from one shared stream drawn up
// front in iteration order, and shard results merge in iteration order —
// so the Result is identical for any worker count.
func Run(t Test, cfg RunnerConfig) (*Result, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 100
	}
	res := &Result{Test: t.Name, Iters: cfg.Iters, Outcomes: make(map[string]int),
		PoisonedVars: make(map[string]int), HangClasses: make(map[string]int)}

	// Staggered start offsets widen the interleaving space. They are
	// drawn from a single BaseSeed-derived stream in iteration order
	// (the stream a serial campaign consumes), then indexed per
	// iteration by the shards.
	nt := len(t.Threads)
	rng := rand.New(rand.NewPCG(uint64(cfg.BaseSeed)^0x5eed, 0xc3c3))
	offsets := make([]sim.Time, cfg.Iters*nt)
	for i := range offsets {
		offsets[i] = sim.Time(rng.IntN(800))
	}
	// Every iteration runs the same programs; the shards share them
	// read-only.
	lay := Place(t, cfg.MCMs, cfg.Sync)

	workers := parallel.Workers(cfg.Workers)
	if workers > cfg.Iters {
		workers = cfg.Iters
	}
	type shard struct {
		outcomes     map[string]int
		forbidden    int
		example      string
		poisoned     int
		crashed      int
		poisonedVars map[string]int
		hangs        int
		hangClasses  map[string]int
	}
	// Contiguous shards: shard s owns [s*Iters/w, (s+1)*Iters/w), so
	// iteration 0 — the only one that traces — always lands in shard 0,
	// and the first shard reporting a forbidden outcome holds the first
	// forbidden iteration overall.
	shards, err := parallel.Map(context.Background(), workers, workers, func(s int) (shard, error) {
		lo, hi := s*cfg.Iters/workers, (s+1)*cfg.Iters/workers
		sr := shard{outcomes: make(map[string]int), poisonedVars: make(map[string]int),
			hangClasses: make(map[string]int)}
		for it := lo; it < hi; it++ {
			// Iteration-boundary poll: catches sweeps of many fast
			// iterations between the step-loop polls inside each one.
			if err := pollAbort(t, &cfg, it); err != nil {
				return sr, err
			}
			o, info, err := runIteration(t, &cfg, &lay, it, offsets[it*nt:(it+1)*nt])
			if err != nil {
				return sr, err
			}
			key := o.String()
			sr.outcomes[key]++
			if info.poisoned {
				sr.poisoned++
			}
			if info.crashed {
				sr.crashed++
			}
			for _, v := range info.poisonedVars {
				sr.poisonedVars[v]++
			}
			if info.hangClass != "" {
				sr.hangs++
				sr.hangClasses[info.hangClass]++
			}
			if t.Forbidden(o) && !info.poisoned && !info.crashed {
				sr.forbidden++
				if sr.example == "" {
					sr.example = key
				}
			}
		}
		return sr, nil
	})
	if err != nil {
		return nil, err
	}
	for _, sr := range shards {
		for k, v := range sr.outcomes {
			res.Outcomes[k] += v
		}
		res.Forbidden += sr.forbidden
		if res.ForbiddenExample == "" && sr.example != "" {
			res.ForbiddenExample = sr.example
		}
		res.Poisoned += sr.poisoned
		res.Crashed += sr.crashed
		for k, v := range sr.poisonedVars {
			res.PoisonedVars[k] += v
		}
		res.Hangs += sr.hangs
		for k, v := range sr.hangClasses {
			res.HangClasses[k] += v
		}
	}
	return res, nil
}

// iterInfo carries an iteration's robustness observations alongside its
// outcome.
type iterInfo struct {
	// poisoned: the iteration completed with >= 1 poisoned line.
	poisoned bool
	// crashed: a crash plan took a host down during the iteration.
	crashed bool
	// poisonedVars lists the test variables whose collector read consumed
	// poisoned data.
	poisonedVars []string
	// hangClass is the watchdog's classification if it fired ("" if not).
	hangClass string
}

// runIteration executes one randomized execution of t, laid out as lay,
// on a private system and returns its outcome. starts carries the
// per-thread staggered start offsets for this iteration.
func runIteration(t Test, cfg *RunnerConfig, lay *Layout, it int, starts []sim.Time) (Outcome, iterInfo, error) {
	seed := cfg.BaseSeed + int64(it)*7919
	mkCore := func(m cpu.MCM) cpu.Config {
		cc := cpu.DefaultConfig(m)
		// Jitter widens the explored interleavings (the role gem5's
		// intrinsic timing variation plays for the paper's runs).
		cc.IssueJitter, cc.DrainJitter, cc.Seed = 1200, 900, seed
		if cfg.IssueJitter > 0 {
			cc.IssueJitter = cfg.IssueJitter
		}
		if cfg.DrainJitter > 0 {
			cc.DrainJitter = cfg.DrainJitter
		}
		return cc
	}

	perCluster := lay.Cores
	perCluster[0]++ // collector slot

	// Tracing is first-iteration-only and therefore confined to the
	// shard that runs iteration 0. HangWatch mode additionally arms a
	// sink-less tracer on every other iteration, purely to feed the
	// watchdog's transaction table.
	var tr *trace.Tracer
	if it == 0 {
		tr = cfg.Tracer
	}
	var wdAge sim.Time
	if cfg.HangWatch {
		if tr == nil {
			tr = trace.New()
		}
		wdAge = trace.DefaultHangAge
	}
	// The fault plan's seed is re-derived per iteration, exactly like
	// fabric jitter, so the fault schedule varies across iterations yet
	// stays identical for any worker count.
	var fplan *faults.Plan
	if cfg.Faults.Enabled() {
		p := *cfg.Faults
		p.Seed ^= uint64(seed) * 0x9e3779b97f4a7c15
		fplan = &p
	}
	sys, err := system.New(system.Config{
		Global:      cfg.Global,
		Seed:        seed,
		Tracer:      tr,
		WatchdogAge: wdAge,
		Faults:      fplan,
		Clusters: []system.ClusterConfig{
			{Protocol: cfg.Locals[0], MCM: cfg.MCMs[0], Cores: perCluster[0], Core: mkCore(cfg.MCMs[0])},
			{Protocol: cfg.Locals[1], MCM: cfg.MCMs[1], Cores: perCluster[1], Core: mkCore(cfg.MCMs[1])},
		},
	})
	if err != nil {
		return nil, iterInfo{}, err
	}
	var info iterInfo
	if tr != nil {
		if dog := tr.Watchdog(); dog != nil {
			dog.OnHangReport = func(r trace.HangReport) { info.hangClass = r.Class }
		}
	}
	if cfg.TraceTo != nil && it == 0 {
		w := cfg.TraceTo
		sys.Net.Trace = func(m *msg.Msg, delivered bool) {
			if delivered {
				fmt.Fprintf(w, "%8d  %v\n", sys.K.Now(), m)
			}
		}
	}

	srcs := make([]*cpu.SliceSource, len(t.Threads))
	cores := make([]*cpu.Core, len(t.Threads))
	for i, p := range lay.Threads {
		srcs[i] = cpu.NewSliceSource(p.Prog)
		cores[i] = sys.AttachSource(p.Cluster, p.Slot, srcs[i])
	}
	for i, c := range cores {
		c := c
		sys.K.Schedule(starts[i], func() { c.Start() })
	}
	limit := sys.K.Stepped + 3_000_000
	countdown := pollStride
	for !allDone(cores) {
		if countdown--; countdown <= 0 {
			countdown = pollStride
			if err := pollAbort(t, cfg, it); err != nil {
				return nil, info, err
			}
		}
		if sys.K.Stepped >= limit || !sys.K.Step() {
			return nil, info, fmt.Errorf("litmus %s: iteration %d wedged", t.Name, it)
		}
	}

	// Collector: read final variable values through the coherent
	// system (cluster 0's spare core).
	var colProg []cpu.Instr
	colProg = append(colProg, cpu.Instr{Kind: cpu.Fence})
	for vi, a := range lay.Addrs {
		colProg = append(colProg, cpu.Instr{Kind: cpu.Load, Addr: a, Reg: vi, Acq: vi == 0})
	}
	col := cpu.NewSliceSource(colProg)
	cc := sys.AttachSource(0, perCluster[0]-1, col)
	// The collector's loads carry the poison flag end to end: record
	// which variables came back flagged (line lost with a crashed host).
	varByAddr := make(map[mem.Addr]string, len(t.Vars))
	for vi, v := range t.Vars {
		varByAddr[lay.Addrs[vi]] = string(v)
	}
	cc.Observe = func(st cpu.OpStats) {
		if st.Kind == cpu.Load && st.Poisoned {
			if v, ok := varByAddr[st.Addr]; ok {
				info.poisonedVars = append(info.poisonedVars, v)
			}
		}
	}
	cc.Start()
	limit = sys.K.Stepped + 1_000_000
	countdown = pollStride
	for !cc.Finished() {
		if countdown--; countdown <= 0 {
			countdown = pollStride
			if err := pollAbort(t, cfg, it); err != nil {
				return nil, info, err
			}
		}
		if sys.K.Stepped >= limit || !sys.K.Step() {
			return nil, info, fmt.Errorf("litmus %s: collector wedged", t.Name)
		}
	}

	o := Outcome{}
	for i, src := range srcs {
		src.EachReg(func(reg int, val uint64) { o[Key(i, reg)] = val })
	}
	for vi, v := range t.Vars {
		o[string(v)] = col.Regs[vi].Val
	}
	info.poisoned = len(sys.PoisonedLines()) > 0
	info.crashed = sys.Recovery.HostsCrashed > 0
	if info.crashed {
		// Post-reclamation isolation invariant: nothing at the home may
		// still name the dead host.
		if v := sys.DeadHostIsolationViolations(); len(v) > 0 {
			return nil, info, fmt.Errorf("litmus %s: iteration %d: dead-host isolation violated: %v",
				t.Name, it, v)
		}
	}
	// All outcome and poison reads are complete: recycle the private
	// system's cache slabs for the next iteration. Error paths skip this
	// (their systems are simply garbage collected).
	sys.Release()
	return o, info, nil
}

func allDone(cores []*cpu.Core) bool {
	for _, c := range cores {
		if !c.Finished() {
			return false
		}
	}
	return true
}
