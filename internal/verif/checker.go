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
	"c3/internal/mem"
	"c3/internal/protocol/hostproto"
)

// Counts are the exploration counters a Report totals and a Progress
// samples. A new counter is one field here plus its entry in Counters.
type Counts struct {
	States    uint64 // distinct states visited
	Terminals uint64 // terminal (all-retired, fabric-empty) states
	// Builds counts full model constructions (Build + Start + prefix
	// re-execution); Clones counts snapshot clones (Model.Clone), one per
	// generated successor except the last of each full expansion, which
	// steps the frontier state itself. Together they expose the cost
	// profile: snapshot exploration does fewer Clones than transitions
	// and O(1) Builds, replay-from-root does O(states·depth) work through
	// Builds and no Clones.
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
	// MemoHits counts deliveries the transition memo answered: the
	// group they reached had already received the same message in the
	// same state, so the recorded outcome was reused and no controller
	// code ran (see Model.Step). Replays of a dropped snapshot's prefix
	// count theirs too.
	MemoHits uint64
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
		{"memo_hits", &c.MemoHits},
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
	MaxDepth  int    // 0 -> 400; negative is an error
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
// copy, the last delivery to the snapshot itself; the delivery prefix is
// re-executed from the root only for entries whose snapshot was dropped
// (the snapshot budget) or when ReplayFromRoot is set. Outside
// ReplayFromRoot, and where no cache set can fill (not under TinyLLC),
// a transition memo answers each delivery the exploration has already
// run from the same group state (see Model.Step and Report.MemoHits).
// A negative MaxDepth is an error. Check starts no goroutine, so
// independent explorations may run concurrently.
//
// Check reads the runtime's memory limit once. Under a limit it samples
// the heap every 256 frontier pops, and over 80% of the limit it
// degrades instead of OOMing: it halves the snapshot budget, releases
// frontier snapshots from the tail, and falls back to replay-from-root
// when the budget reaches zero. Degradation is recorded in
// Report.MemSheds and never changes States/Terminals/Outcomes, only the
// Builds/Clones cost profile. Without a limit the heap is never sampled.
func Check(mcfg ModelConfig, ccfg CheckerConfig) (*Report, error) {
	if ccfg.MaxDepth < 0 {
		return nil, fmt.Errorf("verif: depth bound %d is negative", ccfg.MaxDepth)
	}
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

// frontierEntry is one state waiting in the BFS queue: its trail link,
// its depth, its snapshot when the budget allows, its entry id
// (admission order), and how many promises it holds at the front of the
// sleep-set queue.
type frontierEntry struct {
	trail
	depth    int
	m        *Model
	id       int
	promises int
}

// trail is how an admitted state was reached: the entry it was generated
// from (-1 for the root) and the index of the delivery that made it
// among that entry's enabled actions. The checker keeps one per entry
// id, so a frontier entry carries no path: trails.path rebuilds one by
// walking parents, only to replay a dropped snapshot or for a witness.
// An int32 parent covers 2^31 entries, far past what the visited set
// can hold in memory.
type trail struct {
	parent int32
	ai     uint16
}

type trails []trail

// path writes the delivery path of entry id, depth deliveries from the
// root, into buf's backing and returns it.
func (t trails) path(buf []uint16, id, depth int) []uint16 {
	p := append(buf[:0], make([]uint16, depth)...)
	for i := depth - 1; i >= 0; i-- {
		p[i] = t[id].ai
		id = int(t[id].parent)
	}
	return p
}

// check explores mcfg's state space, merging states whose fingerprints
// agree under the renaming group sym.
func check(mcfg ModelConfig, ccfg CheckerConfig, sym *symmetry) (rep *Report, err error) {
	ccfg.MaxStates = cmp.Or(ccfg.MaxStates, 200_000)
	ccfg.MaxDepth = cmp.Or(ccfg.MaxDepth, 400)
	ccfg.snapshotBudget = cmp.Or(ccfg.snapshotBudget, defaultSnapshotBudget)
	ccfg.progressEvery = cmp.Or(ccfg.progressEvery, defaultProgressEvery)
	ccfg.memSampleEvery = cmp.Or(ccfg.memSampleEvery, defaultMemSampleEvery)
	rep = &Report{Outcomes: map[string]bool{}}
	// mo is the exploration's transition memo, where its key is exact
	// (see memo) and states are not rebuilt from the root each time.
	var mo *memo
	if sym.porOK && !ccfg.ReplayFromRoot {
		mo = newMemo(sym, &rep.MemoHits)
		defer mo.release()
	}
	m0, err := replay(mcfg, nil, mo, nil)
	if err != nil {
		return nil, err
	}
	// visited dedups states by their 64-bit fingerprint and maps each to
	// its entry id. Caveat: two distinct states that collide in 64 bits
	// would silently merge, pruning part of the space — with ~10^6
	// states the collision odds are ~(states^2)/2^65 ≈ 10^-8, accepted
	// for the memory savings of not retaining whole states.
	visited := make(map[uint64]int)
	z := newSleepSets(!ccfg.POROff && !ccfg.sleepOff, sym)
	// tr holds every admitted entry's trail, by entry id.
	var tr trails

	checkForbidden := mcfg.Test.Forbidden != nil &&
		(mcfg.Sync == litmus.SyncFull || ccfg.CheckForbidden)
	if mcfg.Test.Forbidden != nil && !checkForbidden {
		rep.ForbiddenSkipped = true
	}

	// fail wraps a violation at entry id, depth deliveries deep, into a
	// replayable, minimized witness. The symmetry group rides along so
	// minimization can match forbidden outcomes up to renaming (the
	// recorded outcome may be an orbit image of the one the witness path
	// concretely produces).
	fail := func(kind ViolationKind, msgStr string, id, depth int) error {
		cex := &Counterexample{
			Kind: kind, Msg: msgStr,
			Path:        tr.path(nil, id, depth),
			OriginalLen: depth,
		}
		if kind != VLivelock { // a livelock's path length is the failure
			minimizeWitness(mcfg, sym, cex, rep)
		}
		return cex
	}

	// The frontier carries each state's trail always and its snapshot
	// when the budget allows; live counts retained snapshots.
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

	// push parks ent in the frontier, keeping m as its snapshot while the
	// budget allows and releasing it otherwise (the entry then replays
	// its path when popped).
	push := func(ent frontierEntry, m *Model) {
		if !ccfg.ReplayFromRoot && live < ccfg.snapshotBudget {
			ent.m = m
			live++
		} else {
			m.Release()
		}
		frontier = append(frontier, ent)
	}

	// expand makes the successor of delivering acts[ai] at base, the
	// state of entry from — a clone of base; base itself when inPlace,
	// for its last successor; or under ReplayFromRoot a fresh replay of
	// path, from's path, which that mode rebuilt to replay base, so that
	// mode shares no backing — steps it, and admits it into the frontier
	// unless its state was visited before; it reports whether the state
	// was new.
	// Either way the sleep sets learn which entry holds it; a fold
	// through a non-identity renaming is an observed symmetry merge. An
	// in-place successor consumes base: it is released unless admitted.
	// An error ends the exploration: a counterexample, errTruncated at
	// MaxStates, or a failed replay.
	expand := func(base *Model, from *frontierEntry, path []uint16, acts []Action, ai int, inPlace bool) (bool, error) {
		var m *Model
		switch {
		case ccfg.ReplayFromRoot:
			var err error
			if m, err = replay(mcfg, path, nil, nil); err != nil {
				return false, err
			}
			rep.Builds++
		case inPlace:
			m = base
		default:
			m = base.Clone()
			rep.Clones++
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
		tr = append(tr, trail{parent: int32(from.id), ai: uint16(ai)})
		z.cover(ai, id)
		rep.States++
		// Invariants are pure functions of the state, so a visited
		// state's verdict is already known.
		if err := m.checkInvariants(); err != nil {
			m.Release()
			return true, fail(VInvariant, err.Error(), id, from.depth+1)
		}
		if rep.States >= ccfg.MaxStates {
			m.Release()
			return true, errTruncated
		}
		push(frontierEntry{trail: tr[id], depth: from.depth + 1, id: id}, m)
		return true, nil
	}

	rep.Builds++
	h0, ren0 := m0.fingerprint(sym)
	visited[h0] = z.admitted(ren0)
	tr = append(tr, trail{parent: -1})
	rep.States++
	if err := m0.checkInvariants(); err != nil {
		m0.Release()
		return rep, fail(VInvariant, err.Error(), 0, 0)
	}
	push(frontierEntry{trail: tr[0]}, m0)

	// acts, pb and path are per-pop scratch, reused across the pops;
	// path holds the popped entry's path only when its base was
	// replayed.
	var acts []Action
	var pb porScratch
	var path []uint16
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
					// The memo's groups go too, and it stays off.
					mo.release()
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
		if ent.depth > rep.MaxDepth {
			rep.MaxDepth = ent.depth
		}
		base := ent.m
		if base != nil {
			live--
		} else {
			path = tr.path(path, ent.id, ent.depth)
			if base, err = replay(mcfg, path, mo, nil); err != nil {
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
				return rep, fail(kind, msg, ent.id, ent.depth)
			}
			// Under symmetry reduction this terminal stands in for every
			// terminal in its orbit: record the orbit images too, so the
			// outcome set (and the Forbidden verdict) matches an
			// unreduced exploration.
			for _, oo := range sym.outcomeOrbit(o) {
				rep.Outcomes[oo.String()] = true
				if checkForbidden && mcfg.Test.Forbidden(oo) {
					return rep, fail(VForbidden, oo.String(), ent.id, ent.depth)
				}
			}
			continue
		}
		if ent.depth >= ccfg.MaxDepth {
			base.Release()
			return rep, fail(VLivelock, fmt.Sprintf("depth bound %d exceeded", ccfg.MaxDepth), ent.id, ent.depth)
		}
		if len(acts) > math.MaxUint16+1 {
			base.Release()
			return rep, fmt.Errorf("verif: %d enabled actions at depth %d exceed the %d-entry path encoding",
				len(acts), ent.depth, math.MaxUint16+1)
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
		// visited and is not probed. The probe is a clone: the full
		// expansion it may fall through to still needs base.
		if !ccfg.POROff && len(acts) > 1 {
			// Until the probe, only asleep deliveries are covered.
			if ample := base.ampleAction(sym, acts, &pb); ample >= 0 && !z.slots[ample].covered {
				if fresh, err := expand(base, &ent, path, acts, ample, false); fresh || err != nil {
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
		// reach the same states in the same order. The last one steps
		// base itself instead of a clone: base has no successor left to
		// make, so no clone is needed to keep it. Each earlier successor
		// holds its own references, so writing base never touches a
		// backing a successor still shares.
		last := -1
		for ai := range acts {
			if !z.slots[ai].covered {
				last = ai
			}
		}
		pushed := len(frontier)
		for ai := range acts {
			if z.slots[ai].covered {
				continue
			}
			if _, err := expand(base, &ent, path, acts, ai, ai == last); err != nil {
				base.Release() // a no-op once the in-place successor consumed it
				return rep, err
			}
		}
		// Unless its last successor consumed it, the base is fully
		// expanded: recycle its COW backings.
		if last < 0 || ccfg.ReplayFromRoot {
			base.Release()
		}
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

// checkInvariants runs the per-state checks. Each group caches its share
// (group.summary), so a successor re-evaluates only the group its
// delivery reached.
func (m *Model) checkInvariants() error {
	if err := m.checkSWMR(); err != nil {
		return err
	}
	return m.checkCompound()
}

// checkSWMR: at most one host cache system-wide holds write permission
// for a line, and never alongside other valid copies.
func (m *Model) checkSWMR() error {
	lines := m.lines()
	for i, a := range lines {
		writers, readers := 0, 0
		for _, t := range m.threads() {
			// MOESI O is dirty but read-only: a reader.
			switch valid, writable := t.summary(lines).holds(i); {
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
	lines := m.lines()
	for _, cl := range m.clusters() {
		if i := cl.summary(lines).bad; i >= 0 {
			l, g, _ := cl.c3.CompoundOf(lines[i])
			return fmt.Errorf("verif: C3 %d reached forbidden compound state (%s,%s) on %v",
				cl.c3.ID(), l, g, lines[i])
		}
	}
	return nil
}

// invSummary is one group's share of the per-state invariants over the
// model's variable lines, a pure function of the group's state: for a
// thread group, which lines its L1 holds valid and which writable (the
// SWMR inputs); for a cluster group, its first line in a Rule I
// forbidden compound state. The home contributes nothing.
type invSummary struct {
	ok bool
	// perm holds a thread's bits, two words per 64 lines: line i is
	// valid in word 2*(i/64) and writable in the word after, at bit i%64.
	// It points at one for tests of up to 64 lines.
	perm []uint64
	one  [2]uint64
	// bad is a cluster's first forbidden line, an index into the lines,
	// or -1.
	bad int
}

// holds reports whether a thread's L1 holds line i valid and writable.
func (s *invSummary) holds(i int) (valid, writable bool) {
	w, b := 2*(i/64), uint64(1)<<(i%64)
	return s.perm[w]&b != 0, s.perm[w+1]&b != 0
}

// summary returns the group's invariant summary over lines, evaluating
// it unless cached. Like the hashes, it may be filled in a group other
// models share: each of them would compute the same value.
func (g *group) summary(lines []mem.LineAddr) *invSummary {
	s := &g.inv
	if s.ok {
		return s
	}
	s.ok = true
	switch {
	case g.l1 != nil:
		switch n := 2 * ((len(lines) + 63) / 64); {
		case n <= len(s.one):
			s.perm = s.one[:n]
		case len(s.perm) != n:
			s.perm = make([]uint64, n)
		}
		clear(s.perm)
		c := g.l1.Cache()
		for i, a := range lines {
			e := c.ProbeRO(a)
			if e == nil {
				continue
			}
			w, b := 2*(i/64), uint64(1)<<(i%64)
			valid, writable, _ := hostproto.Classify(e.State)
			if valid {
				s.perm[w] |= b
			}
			if writable {
				s.perm[w+1] |= b
			}
		}
	case g.c3 != nil:
		s.bad = -1
		forbidden := g.c3.Table().Forbidden
	scan:
		for i, a := range lines {
			l, gl, busy := g.c3.CompoundOf(a)
			if busy {
				continue
			}
			for _, f := range forbidden {
				if f.L == l && f.G == gl {
					s.bad = i
					break scan
				}
			}
		}
	}
	return s
}
