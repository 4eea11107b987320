package verif

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"c3/internal/litmus"
	"c3/internal/parallel"
)

// Abort sentinels: Check wraps these when an exploration is cut short by
// its wall-clock budget or a graceful shutdown. Both returns carry the
// partial Report accumulated so far, so callers can render what was
// explored before the cut.
var (
	// ErrCheckDeadline: CheckerConfig.Deadline passed mid-exploration.
	ErrCheckDeadline = errors.New("check deadline exceeded")
	// ErrCheckInterrupted: CheckerConfig.Interrupt closed mid-exploration.
	ErrCheckInterrupted = errors.New("check interrupted")
)

// Report summarizes one exhaustive exploration.
type Report struct {
	States    uint64 // distinct states visited
	Terminals uint64 // terminal (all-retired, fabric-empty) states
	Outcomes  map[string]bool
	Truncated bool // MaxStates reached before exhaustion
	MaxDepth  int
	// ForbiddenSkipped records that the test declares a Forbidden
	// predicate but the checker did not evaluate it because the model ran
	// with relaxed synchronization (Sync != SyncFull) — relaxed outcomes
	// the predicate names are then architecturally legal. Set
	// CheckerConfig.CheckForbidden to evaluate it anyway.
	ForbiddenSkipped bool
	// Builds counts full model constructions (Build + Start + prefix
	// re-execution); Clones counts snapshot deep copies. Together they
	// expose the cost profile: snapshot exploration does O(states) cheap
	// Clones and O(1) Builds, replay-from-root does O(states·depth) work
	// through Builds.
	Builds uint64
	Clones uint64
	// MemSheds counts memory-pressure degradation events: each time the
	// sampled heap crossed CheckerConfig.MemBudget the checker halved its
	// snapshot budget and released frontier snapshots instead of risking
	// an OOM kill. Shedding trades CPU (prefix replays) for memory; the
	// exploration result is unaffected.
	MemSheds uint64
	// SnapshotBudgetEnd is the snapshot budget in force when exploration
	// ended — equal to the configured budget unless shedding tightened it
	// (0 = the tail ran in replay-from-root mode).
	SnapshotBudgetEnd int
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
}

// CheckerConfig bounds the exploration.
type CheckerConfig struct {
	MaxStates uint64 // 0 -> 200k
	MaxDepth  int    // 0 -> 400
	// Workers parallelizes successor expansion (0 = GOMAXPROCS, 1 =
	// serial). Successor branches are independent by construction; hashes
	// and invariant results merge in canonical action order, keeping the
	// visit order — and therefore the Report — identical to a serial
	// exploration.
	Workers int
	// ReplayFromRoot disables snapshotting: every state is reconstructed
	// by re-executing its delivery prefix on a freshly built model, as the
	// original checker did. Kept as a cross-check (snapshot and replay
	// exploration must produce identical Reports) and as a low-memory
	// fallback.
	ReplayFromRoot bool
	// SnapshotBudget caps live frontier snapshots (0 -> 4096). Frontier
	// entries beyond the budget drop their model and are rebuilt by prefix
	// replay when popped, bounding memory on wide state spaces.
	SnapshotBudget int
	// CheckForbidden evaluates the test's Forbidden predicate even under
	// relaxed synchronization, where it is normally skipped (see
	// Report.ForbiddenSkipped). Used to demonstrate witness extraction on
	// outcomes that are reachable by design.
	CheckForbidden bool
	// OnProgress, when non-nil, receives a periodic exploration snapshot
	// about every ProgressEvery visited states — the live-introspection
	// feed behind c3check -statusz. It runs serially on the exploration
	// goroutine between expansions (never concurrently); implementations
	// that republish to other goroutines must synchronize. The hook
	// cannot influence exploration.
	OnProgress func(Progress)
	// ProgressEvery is the OnProgress period in states (0 -> 2048).
	ProgressEvery uint64
	// Deadline bounds the exploration's wall clock (zero = none). When it
	// passes, Check returns the partial Report with an error wrapping
	// ErrCheckDeadline.
	Deadline time.Time
	// Interrupt, when non-nil, requests graceful shutdown once closed:
	// Check stops at the next poll and returns the partial Report with an
	// error wrapping ErrCheckInterrupted.
	Interrupt <-chan struct{}
	// MemBudget is a soft heap budget in bytes (0 = none). The checker
	// samples the heap periodically; over budget it degrades instead of
	// OOMing — halving SnapshotBudget, releasing frontier snapshots from
	// the tail, and falling back to replay-from-root when the budget
	// reaches zero. Degradation is recorded in Report.MemSheds and never
	// changes States/Terminals/Outcomes, only the Builds/Clones cost
	// profile.
	MemBudget uint64
	// MemSampleEvery is the heap sampling period in frontier pops
	// (0 -> 256). Sampling stops the world, so it is strided; small
	// values are for tests and tiny state spaces.
	MemSampleEvery int
	// POROff disables the partial-order reduction, expanding every
	// enabled delivery at every state.
	POROff bool
	// CrossCheck runs the reduced exploration and an unreduced reference
	// (identity renaming only, POR off) back to back and errors unless
	// their Outcomes and violation verdicts match — the proof harness for
	// the reduction layer. Cost: both explorations run in full.
	CrossCheck bool
}

// Progress is a mid-exploration snapshot for live introspection.
type Progress struct {
	// States / Terminals / Builds / Clones mirror the Report counters so
	// far; Frontier is the current BFS queue length; Depth the deepest
	// path expanded yet.
	States    uint64
	Terminals uint64
	Builds    uint64
	Clones    uint64
	Frontier  int
	Depth     int
	// SymmetryMerges / PORSkips mirror the Report's reduction counters so
	// far (zero when the reductions are disabled).
	SymmetryMerges uint64
	PORSkips       uint64
}

// Check exhaustively explores mcfg's state space and verifies all
// invariants. On a violation the returned error is a *Counterexample
// whose Path replays the failure via Replay (witnesses other than
// livelocks are first minimized by delta-debugging).
//
// States are expanded by copy-on-write cloning the frontier snapshot
// (Model.Clone) and delivering one message to each copy; the delivery
// prefix is re-executed from the root only for entries whose snapshot
// was dropped (SnapshotBudget) or when ReplayFromRoot is set.
func Check(mcfg ModelConfig, ccfg CheckerConfig) (*Report, error) {
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

// check explores mcfg's state space, merging states whose fingerprints
// agree under the renaming group sym.
func check(mcfg ModelConfig, ccfg CheckerConfig, sym *symmetry) (*Report, error) {
	if ccfg.MaxStates == 0 {
		ccfg.MaxStates = 200_000
	}
	if ccfg.MaxDepth == 0 {
		ccfg.MaxDepth = 400
	}
	if ccfg.SnapshotBudget == 0 {
		ccfg.SnapshotBudget = 4096
	}
	rep := &Report{Outcomes: map[string]bool{}}
	// visited dedups states by their 64-bit fingerprint. Caveat: two
	// distinct states that collide in 64 bits would silently merge,
	// pruning part of the space — with ~10^6 states the collision odds
	// are ~(states^2)/2^65 ≈ 10^-8, accepted for the memory savings of
	// not retaining whole states.
	visited := make(map[uint64]struct{})

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

	// replayPath reconstructs the state after a delivery prefix. Callers
	// account rep.Builds serially (this also runs inside parallel.Map).
	replayPath := func(path []uint16) (*Model, error) {
		m, err := newModel(mcfg)
		if err != nil {
			return nil, err
		}
		for _, ai := range path {
			acts := m.Fabric.Enabled()
			if int(ai) >= len(acts) {
				return nil, fmt.Errorf("verif: replay diverged (action %d of %d)", ai, len(acts))
			}
			m.Step(acts[ai])
		}
		return m, nil
	}

	// The frontier carries each state's path always and its snapshot when
	// the budget allows; live tracks retained snapshots.
	type frontierEntry struct {
		path []uint16
		m    *Model
	}
	var frontier []frontierEntry
	live := 0
	// Pool accounting: whatever path Check returns on — violation,
	// truncation, deadline, interrupt — the snapshots still parked in
	// the frontier must go back to their pools (frontier is captured by
	// reference, so the closure sees the final slice).
	defer func() {
		for i := range frontier {
			if frontier[i].m != nil {
				frontier[i].m.Release()
			}
		}
	}()

	m0, err := replayPath(nil)
	if err != nil {
		return nil, err
	}
	rep.Builds++
	h0, _ := m0.fingerprint(sym)
	visited[h0] = struct{}{}
	rep.States++
	if err := m0.checkInvariants(); err != nil {
		m0.Release()
		return rep, fail(VInvariant, err.Error(), nil)
	}
	if ccfg.ReplayFromRoot {
		m0.Release()
		frontier = append(frontier, frontierEntry{})
	} else {
		frontier = append(frontier, frontierEntry{m: m0})
		live++
	}

	progressEvery := ccfg.ProgressEvery
	if progressEvery == 0 {
		progressEvery = 2048
	}
	var lastProgress uint64

	// SnapshotBudgetEnd reflects the budget in force at exit on every
	// return path, including violations and aborts.
	defer func() { rep.SnapshotBudgetEnd = ccfg.SnapshotBudget }()

	// Memory pressure is sampled on a stride because ReadMemStats stops
	// the world; deadline and interrupt polls are O(ns) per pop (vDSO
	// clock read + non-blocking select), negligible next to an expansion.
	memSampleStride := ccfg.MemSampleEvery
	if memSampleStride <= 0 {
		memSampleStride = 256
	}
	popsSinceSample := 0

	for len(frontier) > 0 {
		if ccfg.Interrupt != nil {
			select {
			case <-ccfg.Interrupt:
				return rep, fmt.Errorf("verif: %s: %w after %d states",
					mcfg.Test.Name, ErrCheckInterrupted, rep.States)
			default:
			}
		}
		if !ccfg.Deadline.IsZero() && time.Now().After(ccfg.Deadline) {
			return rep, fmt.Errorf("verif: %s: %w after %d states",
				mcfg.Test.Name, ErrCheckDeadline, rep.States)
		}
		if ccfg.MemBudget > 0 {
			if popsSinceSample++; popsSinceSample >= memSampleStride {
				popsSinceSample = 0
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				// Shed while there is still something to shed: each event
				// halves the snapshot budget (to zero below 32 — at that
				// point replaying beats thrashing) and strips frontier
				// snapshots from the tail, where entries wait longest
				// before being popped. The exploration itself is untouched:
				// stripped entries rebuild by prefix replay when popped.
				if ms.HeapAlloc > ccfg.MemBudget && (ccfg.SnapshotBudget > 0 || live > 0) {
					rep.MemSheds++
					ccfg.SnapshotBudget /= 2
					if ccfg.SnapshotBudget < 32 {
						ccfg.SnapshotBudget = 0
					}
					for i := len(frontier) - 1; i >= 0 && live > ccfg.SnapshotBudget; i-- {
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
		if ccfg.OnProgress != nil && rep.States-lastProgress >= progressEvery {
			lastProgress = rep.States
			ccfg.OnProgress(Progress{
				States: rep.States, Terminals: rep.Terminals,
				Builds: rep.Builds, Clones: rep.Clones,
				Frontier: len(frontier), Depth: rep.MaxDepth,
				SymmetryMerges: rep.SymmetryMerges, PORSkips: rep.PORSkips,
			})
		}
		ent := frontier[0]
		frontier[0] = frontierEntry{}
		frontier = frontier[1:]
		path := ent.path
		if len(path) > rep.MaxDepth {
			rep.MaxDepth = len(path)
		}
		base := ent.m
		if base != nil {
			live--
		} else {
			base, err = replayPath(path)
			if err != nil {
				return rep, err
			}
			rep.Builds++
		}
		acts := base.Fabric.Enabled()
		if len(acts) == 0 {
			if !base.AllFinished() {
				base.Release()
				return rep, fail(VDeadlock, "cores stuck with empty fabric", path)
			}
			rep.Terminals++
			o, oerr := base.Outcome()
			if oerr != nil {
				// An incoherent terminal (conflicting exclusive owners,
				// busy line, disagreeing copies) is an invariant breach
				// the per-state checks cannot see — witness it instead
				// of panicking.
				base.Release()
				return rep, fail(VInvariant, oerr.Error(), path)
			}
			base.Release()
			// Under symmetry reduction this terminal stands in for every
			// terminal in its orbit: record the orbit images too, so the
			// outcome set (and the Forbidden verdict) matches an
			// unreduced exploration.
			for _, oo := range append([]litmus.Outcome{o}, sym.outcomeOrbit(o)...) {
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
		// Partial-order reduction: when one enabled delivery provably
		// commutes with every other (see ampleAction), expand it alone.
		// The ample successor must be new — an already-visited successor
		// would let a cycle ignore the other deliveries forever (the
		// cycle proviso), so that case falls through to full expansion.
		// The probe is serial and deterministic, so reports stay
		// byte-identical at every worker count.
		if !ccfg.POROff && len(acts) > 1 {
			if ample := base.ampleAction(sym, acts); ample >= 0 {
				probe := base.Clone()
				rep.Clones++
				probe.Step(acts[ample])
				h, _ := probe.fingerprint(sym)
				if _, seen := visited[h]; !seen {
					rep.PORSkips += uint64(len(acts) - 1)
					visited[h] = struct{}{}
					rep.States++
					np := make([]uint16, len(path)+1)
					copy(np, path)
					np[len(path)] = uint16(ample)
					if err := probe.checkInvariants(); err != nil {
						probe.Release()
						base.Release()
						return rep, fail(VInvariant, err.Error(), np)
					}
					if rep.States >= ccfg.MaxStates {
						probe.Release()
						base.Release()
						rep.Truncated = true
						return rep, nil
					}
					ent := frontierEntry{path: np}
					if !ccfg.ReplayFromRoot && live < ccfg.SnapshotBudget {
						ent.m = probe
						live++
					} else {
						probe.Release()
					}
					frontier = append(frontier, ent)
					base.Release()
					continue
				}
				probe.Release()
			}
		}
		// Expand all successors in parallel: each branch deep-copies the
		// frontier snapshot (or, under ReplayFromRoot, re-executes the
		// prefix on a fresh model) and delivers one message. Clone is
		// read-only on the parent, so branches are independent. The merge
		// below runs serially in canonical action order, so visited-set
		// updates, state counts, truncation, and the frontier are
		// byte-identical to a serial exploration — and identical between
		// the snapshot and replay strategies, which reach the same states.
		// Invariants are pure functions of the state, so checking them
		// eagerly here (even for states the merge will skip as already
		// visited) changes nothing observable.
		type successor struct {
			hash    uint64
			renamed bool
			invErr  error
			m       *Model
		}
		kids, err := parallel.Map(context.Background(), ccfg.Workers, len(acts),
			func(ai int) (successor, error) {
				var m *Model
				if ccfg.ReplayFromRoot {
					var err error
					if m, err = replayPath(path); err != nil {
						return successor{}, err
					}
				} else {
					m = base.Clone()
				}
				m.Step(m.Fabric.Enabled()[ai])
				s := successor{invErr: m.checkInvariants()}
				s.hash, s.renamed = m.fingerprint(sym)
				if ccfg.ReplayFromRoot {
					m.Release()
				} else {
					s.m = m
				}
				return s, nil
			})
		if err != nil {
			base.Release()
			return rep, err
		}
		if ccfg.ReplayFromRoot {
			rep.Builds += uint64(len(acts))
		} else {
			rep.Clones += uint64(len(acts))
		}
		// The base is fully expanded: recycle its COW backings. Each kid
		// holds its own references, so releasing the parent never frees
		// a slab a successor still shares.
		base.Release()
		// releaseKids drains un-merged successors on an early return;
		// merged entries hand their snapshot to the frontier (or release
		// it themselves) and are nilled out, so the sweep is exact.
		releaseKids := func(from int) {
			for i := from; i < len(kids); i++ {
				if kids[i].m != nil {
					kids[i].m.Release()
				}
			}
		}
		for ai := range kids {
			kid := kids[ai]
			kids[ai].m = nil
			if _, seen := visited[kid.hash]; seen {
				if kid.renamed {
					// The fold came from a non-identity renaming: this
					// successor merged with a symmetric sibling.
					rep.SymmetryMerges++
				}
				if kid.m != nil {
					kid.m.Release()
				}
				continue
			}
			visited[kid.hash] = struct{}{}
			rep.States++
			np := make([]uint16, len(path)+1)
			copy(np, path)
			np[len(path)] = uint16(ai)
			if kid.invErr != nil {
				if kid.m != nil {
					kid.m.Release()
				}
				releaseKids(ai + 1)
				return rep, fail(VInvariant, kid.invErr.Error(), np)
			}
			if rep.States >= ccfg.MaxStates {
				if kid.m != nil {
					kid.m.Release()
				}
				releaseKids(ai + 1)
				rep.Truncated = true
				return rep, nil
			}
			ent := frontierEntry{path: np}
			if kid.m != nil {
				if live < ccfg.SnapshotBudget {
					ent.m = kid.m
					live++
				} else {
					// Over budget: drop the snapshot (the entry replays
					// its prefix when popped) and recycle its backings.
					kid.m.Release()
				}
			}
			frontier = append(frontier, ent)
		}
	}
	return rep, nil
}

// crossCheck runs the reduced exploration and an unreduced reference
// back to back and verifies the reduction lost nothing: the two must
// agree on the violation kind and reach the same outcome set. The
// reference hashes states with the same fingerprint under the identity
// renaming alone, with POR off, so it merges only states that agree on
// everything but bookkeeping; being sound, it must match the reduced
// outcome set exactly. Truncated runs are not comparable (the two
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
		if errors.Is(err, ErrCheckDeadline) || errors.Is(err, ErrCheckInterrupted) {
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
		for _, t := range m.threads {
			e := t.l1.Cache().ProbeRO(a)
			if e == nil {
				continue
			}
			switch e.State {
			case 2, 3, 4: // stE, stM, stO: write permission or dirty
				if e.State == 4 {
					// MOESI O: dirty but read-only; counts as reader.
					readers++
				} else {
					writers++
				}
			case 1, 5: // stS, stF
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
	for _, c3 := range m.c3s {
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
