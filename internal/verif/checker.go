package verif

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"c3/internal/litmus"
	"c3/internal/protocol/hostproto"
)

// Counts are the exploration counters a Report totals and a Progress
// samples. A new counter is one field here plus its entry in Counters.
type Counts struct {
	States    uint64 // distinct states visited
	Terminals uint64 // terminal (all-retired, fabric-empty) states
	// Builds counts full model constructions (Build + Start + prefix
	// re-execution); Clones counts snapshot deep copies. Together they
	// expose the cost profile: snapshot exploration does O(states) cheap
	// Clones and O(1) Builds, replay-from-root does O(states·depth) work
	// through Builds.
	Builds uint64
	Clones uint64
	// SymmetryMerges counts successor states that folded onto an
	// already-visited state through a non-identity symmetry renaming —
	// the observable yield of the symmetry reduction. It records which
	// renaming attains the orbit's minimum fingerprint, so it moves with
	// the hash function; States, which count orbits, do not.
	SymmetryMerges uint64
	// PORSkips counts successor expansions the partial-order reduction
	// skipped (enabled deliveries proven independent of the chosen
	// ample delivery).
	PORSkips uint64
	// SleepSkips counts successors the sleep sets skipped: deliveries a
	// promise proved to reach an already-visited state, so they were
	// neither cloned nor stepped. SymmetryMerges counts only the folds
	// the checker observed, so it falls as SleepSkips rises.
	SleepSkips uint64
}

// Counter is one exploration counter under its registry name.
type Counter struct {
	Name string
	N    *uint64
}

// Counters lists c's counters under their registry names, in field
// order.
func (c *Counts) Counters() []Counter {
	return []Counter{
		{"states", &c.States},
		{"terminals", &c.Terminals},
		{"builds", &c.Builds},
		{"clones", &c.Clones},
		{"symmetry_merges", &c.SymmetryMerges},
		{"por_skips", &c.PORSkips},
		{"sleep_skips", &c.SleepSkips},
	}
}

// Report summarizes one exhaustive exploration.
type Report struct {
	Counts
	Outcomes  map[string]bool
	Truncated bool // MaxStates reached before exhaustion
	MaxDepth  int
	// ForbiddenSkipped records that the test declares a Forbidden
	// predicate but the checker did not evaluate it because the model ran
	// with relaxed synchronization (Sync != SyncFull) — relaxed outcomes
	// the predicate names are then architecturally legal. Set
	// CheckerConfig.CheckForbidden to evaluate it anyway.
	ForbiddenSkipped bool
	// MemSheds counts memory-pressure degradation events: each time the
	// sampled heap crossed the soft budget — 80% of the runtime's memory
	// limit (debug.SetMemoryLimit, GOMEMLIMIT) — the checker halved its
	// snapshot budget and released frontier snapshots instead of risking
	// an OOM kill. Shedding trades CPU (prefix replays) for memory; the
	// exploration result is unaffected.
	MemSheds uint64
	// SnapshotBudgetEnd is the snapshot budget in force when exploration
	// ended — the 4096 default unless shedding tightened it (0 = the tail
	// ran in replay-from-root mode).
	SnapshotBudgetEnd int
}

// Internal strides and budgets, each with a test seam in CheckerConfig.
const (
	// defaultSnapshotBudget caps live frontier snapshots. Frontier
	// entries beyond it drop their model and are rebuilt by prefix
	// replay when popped, bounding memory on wide state spaces.
	defaultSnapshotBudget = 4096
	// defaultProgressEvery is the OnProgress period in visited states.
	defaultProgressEvery = 2048
	// defaultMemSampleEvery is the heap sampling period in frontier
	// pops. Sampling stops the world, so it is strided.
	defaultMemSampleEvery = 256
)

// CheckerConfig bounds the exploration.
type CheckerConfig struct {
	MaxStates uint64 // 0 -> 200k
	MaxDepth  int    // 0 -> 400
	// Deprecated: Workers is ignored. An exploration runs on the calling
	// goroutine; independent explorations run concurrently instead, as
	// c3check -j does.
	Workers int
	// ReplayFromRoot disables snapshotting: every state is reconstructed
	// by re-executing its delivery prefix on a freshly built model, as the
	// original checker did. Kept as a cross-check (snapshot and replay
	// exploration must produce identical Reports) and as a low-memory
	// fallback.
	ReplayFromRoot bool
	// CheckForbidden evaluates the test's Forbidden predicate even under
	// relaxed synchronization, where it is normally skipped (see
	// Report.ForbiddenSkipped). Used to demonstrate witness extraction on
	// outcomes that are reachable by design.
	CheckForbidden bool
	// OnProgress, when non-nil, receives a periodic exploration snapshot
	// about every 2048 visited states — the live-introspection feed
	// behind c3check -statusz. It runs serially on the exploration
	// goroutine between expansions (never concurrently); implementations
	// that republish to other goroutines must synchronize. The hook
	// cannot influence exploration.
	OnProgress func(Progress)
	// Deadline bounds the exploration's wall clock (zero = none). When it
	// passes, Check returns the partial Report with an error wrapping
	// litmus.ErrTaskDeadline, the sentinel a soak attempt's cut wraps.
	Deadline time.Time
	// Interrupt, when non-nil, requests graceful shutdown once closed:
	// Check stops at the next poll and returns the partial Report with an
	// error wrapping litmus.ErrInterrupted.
	Interrupt <-chan struct{}
	// POROff disables the partial-order reduction and the sleep sets,
	// expanding every enabled delivery at every state.
	POROff bool
	// CrossCheck runs the reduced exploration and an unreduced reference
	// (identity renaming only, POR and sleep sets off) back to back and
	// errors unless their Outcomes and violation verdicts match — the
	// proof harness for the reduction layer. Cost: both explorations run
	// in full.
	CrossCheck bool

	// Test seams overriding the defaults above and the soft heap budget
	// Check derives from the runtime's memory limit (0 = default), and
	// switching the sleep sets off alone.
	snapshotBudget int
	progressEvery  uint64
	memSampleEvery int
	memBudget      uint64
	sleepOff       bool
}

// Progress is a mid-exploration snapshot for live introspection: the
// Report's counters so far, the current BFS queue length, and the
// deepest path expanded yet.
type Progress struct {
	Counts
	Frontier int
	Depth    int
}

// Check exhaustively explores mcfg's state space and verifies all
// invariants. On a violation the returned error is a *Counterexample
// whose Path replays the failure via Replay (witnesses other than
// livelocks are first minimized by delta-debugging).
//
// States are expanded on the calling goroutine by copy-on-write cloning
// the frontier snapshot (Model.Clone) and delivering one message to each
// copy; the delivery prefix is re-executed from the root only for
// entries whose snapshot was dropped (the snapshot budget) or when
// ReplayFromRoot is set. Check starts no goroutine, so independent
// explorations may run concurrently.
//
// Check reads the runtime's memory limit once. Under a limit it samples
// the heap every 256 frontier pops, and over 80% of the limit it
// degrades instead of OOMing: it halves the snapshot budget, releases
// frontier snapshots from the tail, and falls back to replay-from-root
// when the budget reaches zero. Degradation is recorded in
// Report.MemSheds and never changes States/Terminals/Outcomes, only the
// Builds/Clones cost profile. Without a limit the heap is never sampled.
func Check(mcfg ModelConfig, ccfg CheckerConfig) (*Report, error) {
	ccfg.memBudget = cmp.Or(ccfg.memBudget, softMemBudget(debug.SetMemoryLimit(-1)))
	// sym is the admitted renaming group (identity-only for asymmetric
	// tests); the POR shares its line index and set-conflict gate. It
	// reads the L1 node ids off a model, so a config the checker cannot
	// build fails here.
	root, err := Build(mcfg)
	if err != nil {
		return nil, err
	}
	sym := newSymmetry(root)
	root.Release()
	if ccfg.CrossCheck {
		return crossCheck(mcfg, ccfg, sym)
	}
	return check(mcfg, ccfg, sym)
}

// softMemBudget is the heap size at which Check starts shedding under
// the runtime memory limit: 80% of it, so degradation starts before the
// GC is forced into a death spiral. No limit (math.MaxInt64, the
// runtime's default) is 0: the heap is never sampled.
func softMemBudget(limit int64) uint64 {
	if limit == math.MaxInt64 {
		return 0
	}
	return uint64(0.8 * float64(limit))
}

// errTruncated ends an exploration that reached MaxStates; check
// returns it as a bounded Report, not as an error.
var errTruncated = errors.New("verif: state budget reached")

// frontierEntry is one state waiting in the BFS queue: its delivery
// path, its snapshot when the budget allows, its entry id (admission
// order), and how many promises it holds at the front of the sleep-set
// queue.
type frontierEntry struct {
	path     []uint16
	m        *Model
	id       int
	promises int
}

// check explores mcfg's state space, merging states whose fingerprints
// agree under the renaming group sym.
func check(mcfg ModelConfig, ccfg CheckerConfig, sym *symmetry) (rep *Report, err error) {
	ccfg.MaxStates = cmp.Or(ccfg.MaxStates, 200_000)
	ccfg.MaxDepth = cmp.Or(ccfg.MaxDepth, 400)
	ccfg.snapshotBudget = cmp.Or(ccfg.snapshotBudget, defaultSnapshotBudget)
	ccfg.progressEvery = cmp.Or(ccfg.progressEvery, defaultProgressEvery)
	ccfg.memSampleEvery = cmp.Or(ccfg.memSampleEvery, defaultMemSampleEvery)
	m0, err := replay(mcfg, nil, nil)
	if err != nil {
		return nil, err
	}
	rep = &Report{Outcomes: map[string]bool{}}
	// visited dedups states by their 64-bit fingerprint and maps each to
	// its entry id. Caveat: two distinct states that collide in 64 bits
	// would silently merge, pruning part of the space — with ~10^6
	// states the collision odds are ~(states^2)/2^65 ≈ 10^-8, accepted
	// for the memory savings of not retaining whole states.
	visited := make(map[uint64]int)
	z := newSleepSets(!ccfg.POROff && !ccfg.sleepOff, sym)

	checkForbidden := mcfg.Test.Forbidden != nil &&
		(mcfg.Sync == litmus.SyncFull || ccfg.CheckForbidden)
	if mcfg.Test.Forbidden != nil && !checkForbidden {
		rep.ForbiddenSkipped = true
	}

	// fail wraps a violation into a replayable, minimized witness. The
	// symmetry group rides along so minimization can match forbidden
	// outcomes up to renaming (the recorded outcome may be an orbit
	// image of the one the witness path concretely produces).
	fail := func(kind ViolationKind, msgStr string, path []uint16) error {
		cex := &Counterexample{
			Kind: kind, Msg: msgStr,
			Path:        append([]uint16(nil), path...),
			OriginalLen: len(path),
		}
		if kind != VLivelock { // a livelock's path length is the failure
			minimizeWitness(mcfg, sym, cex, rep)
		}
		return cex
	}

	// The frontier carries each state's path always and its snapshot when
	// the budget allows; live counts retained snapshots.
	var frontier []frontierEntry
	live := 0
	// Whatever path check returns on — violation, truncation, deadline,
	// interrupt — the snapshots still parked in the frontier go back to
	// their pools (frontier is captured by reference, so the closure sees
	// the final slice), SnapshotBudgetEnd reports the budget in force,
	// and a truncation becomes a bounded Report.
	defer func() {
		for _, ent := range frontier {
			ent.m.Release()
		}
		rep.SnapshotBudgetEnd = ccfg.snapshotBudget
		if err == errTruncated {
			rep.Truncated, err = true, nil
		}
	}()

	// push parks entry id, the state at path, in the frontier, keeping m
	// as its snapshot while the budget allows and releasing it otherwise
	// (the entry then replays its prefix when popped).
	push := func(id int, path []uint16, m *Model) {
		ent := frontierEntry{path: path, id: id}
		if !ccfg.ReplayFromRoot && live < ccfg.snapshotBudget {
			ent.m = m
			live++
		} else {
			m.Release()
		}
		frontier = append(frontier, ent)
	}

	// expand makes the successor of delivering acts[ai] at base, the
	// state at path — a clone of base, or under ReplayFromRoot a fresh
	// replay of path, so that mode shares no backing — steps it, and
	// admits it into the frontier unless its state was visited before;
	// it reports whether the state was new. Either way the sleep sets
	// learn which entry holds it; a fold through a non-identity renaming
	// is an observed symmetry merge. An error ends the exploration: a
	// counterexample, errTruncated at MaxStates, or a failed replay.
	expand := func(base *Model, path []uint16, acts []Action, ai int) (bool, error) {
		var m *Model
		if !ccfg.ReplayFromRoot {
			m = base.Clone()
			rep.Clones++
		} else {
			var err error
			if m, err = replay(mcfg, path, nil); err != nil {
				return false, err
			}
			rep.Builds++
		}
		m.Step(acts[ai])
		h, ren := m.fingerprint(sym)
		if e, seen := visited[h]; seen {
			m.Release()
			z.cover(ai, z.folded(e, ren))
			if ren != 0 {
				rep.SymmetryMerges++
			}
			return false, nil
		}
		id := z.admitted(ren)
		visited[h] = id
		z.cover(ai, id)
		rep.States++
		np := make([]uint16, len(path)+1)
		copy(np, path)
		np[len(path)] = uint16(ai)
		// Invariants are pure functions of the state, so a visited
		// state's verdict is already known.
		if err := m.checkInvariants(); err != nil {
			m.Release()
			return true, fail(VInvariant, err.Error(), np)
		}
		if rep.States >= ccfg.MaxStates {
			m.Release()
			return true, errTruncated
		}
		push(id, np, m)
		return true, nil
	}

	rep.Builds++
	h0, ren0 := m0.fingerprint(sym)
	visited[h0] = z.admitted(ren0)
	rep.States++
	if err := m0.checkInvariants(); err != nil {
		m0.Release()
		return rep, fail(VInvariant, err.Error(), nil)
	}
	push(0, nil, m0)

	// acts and pb are per-pop scratch, reused across the pops.
	var acts []Action
	var pb porScratch
	var lastProgress uint64
	// Memory pressure is sampled on a stride because ReadMemStats stops
	// the world; deadline and interrupt polls are O(ns) per pop (vDSO
	// clock read + non-blocking select), negligible next to an expansion.
	popsSinceSample := 0

	for len(frontier) > 0 {
		if ccfg.Interrupt != nil {
			select {
			case <-ccfg.Interrupt:
				return rep, fmt.Errorf("verif: %s: %w after %d states",
					mcfg.Test.Name, litmus.ErrInterrupted, rep.States)
			default:
			}
		}
		if !ccfg.Deadline.IsZero() && time.Now().After(ccfg.Deadline) {
			return rep, fmt.Errorf("verif: %s: %w after %d states",
				mcfg.Test.Name, litmus.ErrTaskDeadline, rep.States)
		}
		if ccfg.memBudget > 0 {
			if popsSinceSample++; popsSinceSample >= ccfg.memSampleEvery {
				popsSinceSample = 0
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				// Shed while there is still something to shed: each event
				// halves the snapshot budget (to zero below 32 — at that
				// point replaying beats thrashing) and strips frontier
				// snapshots from the tail, where entries wait longest
				// before being popped. The exploration itself is untouched:
				// stripped entries rebuild by prefix replay when popped.
				if ms.HeapAlloc > ccfg.memBudget && (ccfg.snapshotBudget > 0 || live > 0) {
					rep.MemSheds++
					ccfg.snapshotBudget /= 2
					if ccfg.snapshotBudget < 32 {
						ccfg.snapshotBudget = 0
					}
					for i := len(frontier) - 1; i >= 0 && live > ccfg.snapshotBudget; i-- {
						if frontier[i].m != nil {
							frontier[i].m.Release()
							frontier[i].m = nil
							live--
						}
					}
					runtime.GC()
				}
			}
		}
		if ccfg.OnProgress != nil && rep.States-lastProgress >= ccfg.progressEvery {
			lastProgress = rep.States
			ccfg.OnProgress(Progress{Counts: rep.Counts, Frontier: len(frontier), Depth: rep.MaxDepth})
		}
		ent := frontier[0]
		frontier[0] = frontierEntry{}
		frontier = frontier[1:]
		promises := z.pop(ent.promises)
		path := ent.path
		if len(path) > rep.MaxDepth {
			rep.MaxDepth = len(path)
		}
		base := ent.m
		if base != nil {
			live--
		} else {
			if base, err = replay(mcfg, path, nil); err != nil {
				return rep, err
			}
			rep.Builds++
		}
		acts = base.Fabric.appendEnabled(acts[:0])
		if len(acts) == 0 {
			o, kind, msg := base.settle()
			base.Release()
			if kind != VDeadlock { // every core retired: a terminal, coherent or not
				rep.Terminals++
			}
			if kind != VNone {
				return rep, fail(kind, msg, path)
			}
			// Under symmetry reduction this terminal stands in for every
			// terminal in its orbit: record the orbit images too, so the
			// outcome set (and the Forbidden verdict) matches an
			// unreduced exploration.
			for _, oo := range sym.outcomeOrbit(o) {
				rep.Outcomes[oo.String()] = true
				if checkForbidden && mcfg.Test.Forbidden(oo) {
					return rep, fail(VForbidden, oo.String(), path)
				}
			}
			continue
		}
		if len(path) >= ccfg.MaxDepth {
			base.Release()
			return rep, fail(VLivelock, fmt.Sprintf("depth bound %d exceeded", ccfg.MaxDepth), path)
		}
		if len(acts) > math.MaxUint16+1 {
			base.Release()
			return rep, fmt.Errorf("verif: %d enabled actions at depth %d exceed the %d-entry path encoding",
				len(acts), len(path), math.MaxUint16+1)
		}
		// Sleep sets: a delivery a promise proves already visited is
		// neither cloned nor stepped (see sleep.go).
		asleep := z.wake(&base.Fabric, acts, promises)
		// Partial-order reduction: when one enabled delivery provably
		// commutes with every other (see ampleAction), expand it alone.
		// The ample successor must be new — an already-visited successor
		// would let a cycle ignore the other deliveries forever (the
		// cycle proviso), so that case falls through to full expansion,
		// which reuses the probe; an asleep ample delivery is known to be
		// visited and is not probed.
		if !ccfg.POROff && len(acts) > 1 {
			// Until the probe, only asleep deliveries are covered.
			if ample := base.ampleAction(sym, acts, &pb); ample >= 0 && !z.slots[ample].covered {
				if fresh, err := expand(base, path, acts, ample); fresh || err != nil {
					base.Release()
					if fresh {
						rep.PORSkips += uint64(len(acts) - 1)
					}
					if err != nil {
						return rep, err
					}
					z.close(ent.id, frontier[len(frontier)-1:])
					continue
				}
			}
		}
		rep.SleepSkips += uint64(asleep)
		// Expand every delivery not yet covered (asleep, or the folded
		// probe) in canonical action order, admitting each successor as
		// soon as it is stepped, so the snapshot and replay strategies
		// reach the same states in the same order.
		pushed := len(frontier)
		for ai := range acts {
			if z.slots[ai].covered {
				continue
			}
			if _, err := expand(base, path, acts, ai); err != nil {
				base.Release()
				return rep, err
			}
		}
		// The base is fully expanded: recycle its COW backings. Each
		// successor holds its own references, so releasing the parent
		// never frees a backing a successor still shares.
		base.Release()
		z.close(ent.id, frontier[pushed:])
	}
	return rep, nil
}

// crossCheck runs the reduced exploration and an unreduced reference
// back to back and verifies the reduction lost nothing: the two must
// agree on the violation kind and reach the same outcome set. The
// reference hashes states with the same fingerprint under the identity
// renaming alone, with POR and sleep sets off (POROff switches off
// both), so it merges only states that agree on everything but
// bookkeeping; being sound, it must match the reduced outcome set
// exactly. Truncated runs are not comparable (the two
// explorations truncate at different points of the space) and skip the
// comparison. The returned Report is the reduced one with the
// reference's build/clone costs folded in.
func crossCheck(mcfg ModelConfig, ccfg CheckerConfig, sym *symmetry) (*Report, error) {
	unred := ccfg
	unred.POROff = true
	repR, errR := check(mcfg, ccfg, sym)
	repU, errU := check(mcfg, unred, sym.identityOnly())
	if repR != nil && repU != nil {
		repR.Builds += repU.Builds
		repR.Clones += repU.Clones
	}
	// Aborts (deadline/interrupt) are not verdicts; surface them as-is.
	for _, err := range []error{errR, errU} {
		if errors.Is(err, litmus.ErrTaskDeadline) || errors.Is(err, litmus.ErrInterrupted) {
			return repR, err
		}
	}
	var cexR, cexU *Counterexample
	okR := errors.As(errR, &cexR)
	okU := errors.As(errU, &cexU)
	switch {
	case errR != nil && !okR:
		return repR, errR
	case errU != nil && !okU:
		return repR, errU
	case okR != okU:
		return repR, fmt.Errorf("verif: cross-check mismatch on %s: reduced says %v, unreduced says %v",
			mcfg.Test.Name, errR, errU)
	case okR && okU:
		if cexR.Kind != cexU.Kind {
			return repR, fmt.Errorf("verif: cross-check mismatch on %s: reduced violation %v, unreduced %v",
				mcfg.Test.Name, cexR.Kind, cexU.Kind)
		}
		return repR, errR
	}
	if repR.Truncated || repU.Truncated {
		return repR, nil
	}
	for o := range repU.Outcomes {
		if !repR.Outcomes[o] {
			return repR, fmt.Errorf("verif: cross-check mismatch on %s: unreduced outcome %q missing from reduced set",
				mcfg.Test.Name, o)
		}
	}
	for o := range repR.Outcomes {
		if !repU.Outcomes[o] {
			return repR, fmt.Errorf("verif: cross-check mismatch on %s: reduced outcome %q not reached unreduced",
				mcfg.Test.Name, o)
		}
	}
	return repR, nil
}

// checkInvariants runs the per-state checks.
func (m *Model) checkInvariants() error {
	if err := m.checkSWMR(); err != nil {
		return err
	}
	return m.checkCompound()
}

// checkSWMR: at most one host cache system-wide holds write permission
// for a line, and never alongside other valid copies.
func (m *Model) checkSWMR() error {
	for _, a := range m.lines() {
		writers, readers := 0, 0
		for _, t := range m.threads() {
			e := t.l1.Cache().ProbeRO(a)
			if e == nil {
				continue
			}
			// MOESI O is dirty but read-only: a reader.
			switch valid, writable, _ := hostproto.Classify(e.State); {
			case writable:
				writers++
			case valid:
				readers++
			}
		}
		if writers > 1 {
			return fmt.Errorf("verif: SWMR violated on %v: %d writers", a, writers)
		}
		if writers == 1 && readers > 0 {
			return fmt.Errorf("verif: SWMR violated on %v: writer with %d readers", a, readers)
		}
	}
	return nil
}

// checkCompound: Rule I's forbidden compound states must be unreachable
// in every C3 (checked only for lines with no transaction in flight —
// transient states are by construction intermediate).
func (m *Model) checkCompound() error {
	for _, cl := range m.clusters() {
		c3 := cl.c3
		tab := c3.Table()
		for _, a := range m.lines() {
			l, g, busy := c3.CompoundOf(a)
			if busy {
				continue
			}
			for _, f := range tab.Forbidden {
				if f.L == l && f.G == g {
					return fmt.Errorf("verif: C3 %d reached forbidden compound state (%s,%s) on %v",
						c3.ID(), l, g, a)
				}
			}
		}
	}
	return nil
}
