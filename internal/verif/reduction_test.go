package verif

import (
	"errors"
	"testing"
	"time"

	"c3/internal/cpu"
	"c3/internal/litmus"
	"c3/internal/mem"
	"c3/internal/msg"
)

// wmoCXL builds the canonical reduction-test configuration: mesi hosts,
// cxl global protocol, weakly ordered cores, full synchronization.
func wmoCXL(t testing.TB, name string, sync litmus.SyncMode) ModelConfig {
	tc, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("no %s test", name)
	}
	return ModelConfig{
		Test:   tc,
		Locals: [2]string{"mesi", "mesi"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:   sync,
	}
}

// TestReductionEquivalenceCorpus runs the cross-check mode over the full
// litmus corpus on the canonical configuration: the reduced checker
// (canonical hashing + symmetry + POR + sleep sets) must reach exactly
// the unreduced reference's outcomes and agree on every violation
// verdict. CrossCheck performs both runs and the comparison internally.
func TestReductionEquivalenceCorpus(t *testing.T) {
	for _, lt := range litmus.Tests() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			mcfg := wmoCXL(t, lt.Name, litmus.SyncFull)
			_, err := Check(mcfg, CheckerConfig{MaxStates: 100_000, CrossCheck: true})
			var cex *Counterexample
			if err != nil && !errors.As(err, &cex) {
				t.Fatalf("cross-check failed: %v", err)
			}
		})
	}
}

// TestReductionEquivalenceVariants cross-checks the reduction on
// configurations that exercise its gating and fallback logic: an hmesi
// global directory with mixed host protocols and MCMs (both sides must
// report the same violation kind: MP trips the H-MESI baseline's open
// IS^D_I race, where a C3 with a pending GGetS acks a nested GInv, then
// installs gS from the late peer GDataS and grants DataS beside the new
// M copy; SB verifies), a
// TinyLLC host (variable permutations and POR must disable themselves;
// thread symmetry stays sound), and unsynchronized runs with forbidden
// checking on (forbidden verdicts must agree). Each runs with snapshots
// and again under ReplayFromRoot, so the comparison holds however a
// state is rebuilt.
func TestReductionEquivalenceVariants(t *testing.T) {
	type variant struct {
		name           string
		locals         [2]string
		global         string
		mcms           [2]cpu.MCM
		sync           litmus.SyncMode
		tiny           bool
		checkForbidden bool
	}
	variants := []variant{
		{"hmesi-mixed", [2]string{"moesi", "mesif"}, "hmesi", [2]cpu.MCM{cpu.TSO, cpu.WMO}, litmus.SyncFull, false, false},
		{"tiny-llc", [2]string{"mesi", "mesi"}, "cxl", [2]cpu.MCM{cpu.WMO, cpu.WMO}, litmus.SyncFull, true, false},
		{"unsynced-forbidden", [2]string{"mesi", "mesi"}, "cxl", [2]cpu.MCM{cpu.WMO, cpu.WMO}, litmus.SyncNone, false, true},
	}
	for _, v := range variants {
		for _, name := range []string{"MP", "SB"} {
			for _, replayRoot := range []bool{false, true} {
				t.Run(v.name+"/"+name, func(t *testing.T) {
					lt, ok := litmus.ByName(name)
					if !ok {
						t.Fatalf("no %s test", name)
					}
					mcfg := ModelConfig{Test: lt, Locals: v.locals, Global: v.global,
						MCMs: v.mcms, Sync: v.sync, TinyLLC: v.tiny}
					ccfg := CheckerConfig{MaxStates: 100_000, ReplayFromRoot: replayRoot,
						CheckForbidden: v.checkForbidden, CrossCheck: true}
					_, err := Check(mcfg, ccfg)
					var cex *Counterexample
					if err != nil && !errors.As(err, &cex) {
						t.Fatalf("cross-check failed (replay-from-root %v): %v", replayRoot, err)
					}
				})
			}
		}
	}
}

// symmetryOf computes mcfg's renaming group from a throwaway model.
func symmetryOf(t testing.TB, mcfg ModelConfig) *symmetry {
	t.Helper()
	m, err := Build(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	return newSymmetry(m)
}

// unreduced explores mcfg the way CrossCheck's reference does: the same
// fingerprint under the identity renaming alone, with POR and sleep sets
// off.
func unreduced(t testing.TB, mcfg ModelConfig, ccfg CheckerConfig) (*Report, error) {
	ccfg.POROff = true
	return check(mcfg, ccfg, symmetryOf(t, mcfg).identityOnly())
}

// TestUnreducedReferenceCounts pins the unreduced reference's merge
// partition. CoRR2 must reach all 18 of its outcomes: a fingerprint that
// leaves out register files merges states differing only in loaded
// values and loses terminals.
func TestUnreducedReferenceCounts(t *testing.T) {
	want := map[string]struct {
		states   uint64
		outcomes int
	}{
		"MP":    {198, 3},
		"SB":    {219, 3},
		"WRC":   {1184, 7},
		"IRIW":  {6293, 15},
		"CoRR2": {1715, 18},
		"MP+3W": {24262, 3},
	}
	for name, w := range want {
		rep, err := unreduced(t, wmoCXL(t, name, litmus.SyncFull), CheckerConfig{MaxStates: 100_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.States != w.states || len(rep.Outcomes) != w.outcomes {
			t.Errorf("%s: unreduced run visited %d states with %d outcomes, want %d and %d",
				name, rep.States, len(rep.Outcomes), w.states, w.outcomes)
		}
		if rep.SymmetryMerges != 0 || rep.PORSkips != 0 {
			t.Errorf("%s: reduction counters nonzero with reductions off: symm=%d por=%d",
				name, rep.SymmetryMerges, rep.PORSkips)
		}
	}
}

// TestCorpusGoldens pins the reduced checker's report on every corpus
// test in the benchmark's configuration (MESI-CXL-MESI, WMO cores, full
// synchronization, default budgets, one worker). A fingerprint change
// that merges a different set of states moves these counts, and so does
// a change of node numbering: POR's singleton ample set is the first
// eligible delivery in channel order, and channels sort by node id.
// Clones, SleepSkips and MemoHits are counted costs, deterministic like
// the rest: a change to the sleep sets or the POR probe moves the first
// two, and a change to what the group hashes keep moves the memo's.
func TestCorpusGoldens(t *testing.T) {
	type golden struct {
		states, terminals  uint64
		outcomes           int
		depth              int
		porSkips           uint64
		clones, sleepSkips uint64
		memoHits           uint64
	}
	want := map[string]golden{
		"MP":     {152, 3, 3, 28, 25, 45, 44, 64},
		"SB":     {161, 3, 3, 28, 31, 52, 44, 74},
		"LB":     {148, 3, 3, 26, 22, 42, 44, 58},
		"R":      {163, 3, 3, 28, 31, 52, 44, 69},
		"S":      {154, 3, 3, 28, 25, 45, 44, 58},
		"2_2W":   {165, 3, 3, 28, 31, 52, 44, 62},
		"IRIW":   {5802, 15, 15, 44, 1666, 3440, 5485, 6518},
		"CoRR":   {46, 2, 2, 14, 0, 9, 15, 17},
		"CoRR2":  {1715, 18, 18, 34, 0, 541, 1450, 1596},
		"CoWW":   {5, 1, 1, 4, 0, 0, 0, 0},
		"WRC":    {1082, 7, 7, 36, 183, 503, 734, 930},
		"RWC":    {1063, 7, 7, 36, 192, 486, 727, 908},
		"WWC":    {1077, 9, 9, 38, 186, 493, 692, 909},
		"WRW+2W": {1094, 9, 9, 38, 204, 495, 699, 889},
		"MP+3W":  {2128, 3, 3, 40, 1222, 1440, 1858, 2307},
	}
	tests := litmus.Tests()
	if len(tests) != len(want) {
		t.Fatalf("corpus has %d tests, goldens cover %d", len(tests), len(want))
	}
	for _, lt := range tests {
		w, ok := want[lt.Name]
		if !ok {
			t.Errorf("%s: no golden", lt.Name)
			continue
		}
		rep, err := Check(wmoCXL(t, lt.Name, litmus.SyncFull), CheckerConfig{})
		if err != nil {
			t.Fatalf("%s: %v", lt.Name, err)
		}
		got := golden{rep.States, rep.Terminals, len(rep.Outcomes), rep.MaxDepth, rep.PORSkips,
			rep.Clones, rep.SleepSkips, rep.MemoHits}
		if got != w || rep.Truncated {
			t.Errorf("%s: got %+v (truncated=%v), want %+v", lt.Name, got, rep.Truncated, w)
		}
	}
}

// TestReductionCompletesFormerlyTruncated: MP+3W under a 10k-state
// budget truncates unreduced (24262 states exist) but completes
// exhaustively reduced, with both symmetry and POR contributing, and the
// reduced run still reaches every outcome the truncated unreduced run
// saw.
func TestReductionCompletesFormerlyTruncated(t *testing.T) {
	mcfg := wmoCXL(t, "MP+3W", litmus.SyncFull)
	const budget = 10_000

	raw, err := unreduced(t, mcfg, CheckerConfig{MaxStates: budget})
	if err != nil {
		t.Fatalf("unreduced: %v", err)
	}
	if !raw.Truncated {
		t.Fatalf("unreduced run was expected to truncate at %d states (visited %d)", budget, raw.States)
	}

	red, err := Check(mcfg, CheckerConfig{MaxStates: budget})
	if err != nil {
		t.Fatalf("reduced: %v", err)
	}
	if red.Truncated {
		t.Fatalf("reduced run still truncated: %d states", red.States)
	}
	if red.SymmetryMerges == 0 {
		t.Error("reduced run reports no symmetry merges; MP+3W has interchangeable writer threads")
	}
	if red.PORSkips == 0 {
		t.Error("reduced run reports no POR skips; MP+3W has independent single-store lines")
	}
	for o := range raw.Outcomes {
		if !red.Outcomes[o] {
			t.Errorf("outcome %q reached by the truncated unreduced run but not the reduced run", o)
		}
	}
	t.Logf("unreduced truncated at %d states; reduced completed at %d (symm=%d, por=%d)",
		raw.States, red.States, red.SymmetryMerges, red.PORSkips)
}

// TestReducedCheckerWorkerIndependence: Workers is deprecated and
// ignored, so the reduced checker's Report — including the reduction
// counters and the clone count — is identical whatever it is set to.
func TestReducedCheckerWorkerIndependence(t *testing.T) {
	mcfg := wmoCXL(t, "MP+3W", litmus.SyncFull)
	want, err := Check(mcfg, CheckerConfig{MaxStates: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := Check(mcfg, CheckerConfig{Workers: workers, MaxStates: 100_000})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.States != want.States || got.Terminals != want.Terminals ||
			got.MaxDepth != want.MaxDepth || got.Truncated != want.Truncated ||
			got.SymmetryMerges != want.SymmetryMerges || got.PORSkips != want.PORSkips ||
			got.SleepSkips != want.SleepSkips || got.Clones != want.Clones {
			t.Errorf("workers=%d diverged: got states=%d terminals=%d depth=%d symm=%d por=%d sleep=%d clones=%d, want %d/%d/%d/%d/%d/%d/%d",
				workers, got.States, got.Terminals, got.MaxDepth, got.SymmetryMerges, got.PORSkips,
				got.SleepSkips, got.Clones, want.States, want.Terminals, want.MaxDepth,
				want.SymmetryMerges, want.PORSkips, want.SleepSkips, want.Clones)
		}
		if len(got.Outcomes) != len(want.Outcomes) {
			t.Errorf("workers=%d: %d outcomes, want %d", workers, len(got.Outcomes), len(want.Outcomes))
		}
		for o := range want.Outcomes {
			if !got.Outcomes[o] {
				t.Errorf("workers=%d missing outcome %q", workers, o)
			}
		}
	}
}

// TestSymmetryGroups pins the admitted renaming groups: MP has no
// nontrivial symmetry (both threads are register-bearing and pinned),
// while MP+3W admits exactly one nontrivial renaming — swapping the two
// interchangeable cluster-0 writer threads t2/t4 — and TinyLLC keeps
// the thread swap while disabling variable permutations and POR.
func TestSymmetryGroups(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tiny  bool
		perms int
		porOK bool
	}{
		{"MP", false, 1, true},
		{"CoRR2", false, 1, true},
		{"MP+3W", false, 2, true},
		{"MP+3W", true, 2, false},
	} {
		mcfg := wmoCXL(t, tc.name, litmus.SyncFull)
		mcfg.TinyLLC = tc.tiny
		sym := symmetryOf(t, mcfg)
		if len(sym.perms) != tc.perms {
			t.Errorf("%s (tiny=%v): %d admitted renamings, want %d", tc.name, tc.tiny, len(sym.perms), tc.perms)
		}
		if sym.porOK != tc.porOK {
			t.Errorf("%s (tiny=%v): porOK=%v, want %v", tc.name, tc.tiny, sym.porOK, tc.porOK)
		}
	}
}

// TestCheckReleasesAllModels pins the snapshot-pool accounting across
// every early-return path: violations, truncation, deadline, livelock,
// and replay-from-root mode must all leave zero live models behind.
// Before the leak fixes, each counterexample path abandoned the frontier
// tail and the unmerged successor clones.
func TestCheckReleasesAllModels(t *testing.T) {
	base := ModelsLive()
	run := func(name string, mcfg ModelConfig, ccfg CheckerConfig) {
		t.Helper()
		_, err := Check(mcfg, ccfg)
		var cex *Counterexample
		if err != nil && !errors.As(err, &cex) &&
			!errors.Is(err, litmus.ErrTaskDeadline) {
			t.Fatalf("%s: unexpected error: %v", name, err)
		}
		if n := ModelsLive(); n != base {
			t.Errorf("%s: %d models leaked", name, n-base)
		}
	}

	// Forbidden-outcome counterexample (VForbidden early return).
	run("forbidden", wmoCXL(t, "MP", litmus.SyncNone),
		CheckerConfig{MaxStates: 100_000, CheckForbidden: true})
	// Invariant violation mid-exploration: the hmesi mixed config trips
	// the H-MESI baseline's open IS^D_I race (finishSubSnoop acks a GInv
	// nested in a pending GGetS and rolls the frame to I, then
	// completeAcquire installs gS from the late peer GDataS and grants
	// DataS, leaving an S copy beside the new M). It is found on an
	// in-place successor, the last delivery of a base stepped without a
	// clone, which the verdict consumes.
	if !violationInPlace(func() {
		run("invariant", ModelConfig{Test: mustTest(t, "MP"), Locals: [2]string{"moesi", "mesif"},
			Global: "hmesi", MCMs: [2]cpu.MCM{cpu.TSO, cpu.WMO}, Sync: litmus.SyncFull},
			CheckerConfig{MaxStates: 100_000})
	}) {
		t.Error("invariant: the violation was not found on an in-place successor")
	}
	// The same race on IRIW under Arm/Arm is found on a clone, whose
	// base the checker still holds and must release.
	if violationInPlace(func() {
		run("invariant-clone", ModelConfig{Test: mustTest(t, "IRIW"), Locals: [2]string{"mesi", "mesi"},
			Global: "hmesi", MCMs: [2]cpu.MCM{cpu.WMO, cpu.WMO}, Sync: litmus.SyncFull},
			CheckerConfig{MaxStates: 100_000})
	}) {
		t.Error("invariant-clone: the violation was not found on a clone")
	}
	// Truncation with a live frontier.
	run("truncated", wmoCXL(t, "IRIW", litmus.SyncFull),
		CheckerConfig{MaxStates: 200})
	// Livelock detector (depth bound).
	run("livelock", wmoCXL(t, "MP", litmus.SyncFull),
		CheckerConfig{MaxStates: 100_000, MaxDepth: 4})
	// Deadline already expired: immediate partial return.
	run("deadline", wmoCXL(t, "MP", litmus.SyncFull),
		CheckerConfig{MaxStates: 100_000, Deadline: time.Now().Add(-time.Second)})
	// Replay-from-root mode (every successor is a rebuilt model that must
	// release).
	run("replay-from-root", wmoCXL(t, "MP", litmus.SyncFull),
		CheckerConfig{MaxStates: 100_000, ReplayFromRoot: true})
	run("replay-truncated", wmoCXL(t, "MP", litmus.SyncFull),
		CheckerConfig{MaxStates: 50, ReplayFromRoot: true})
}

// violationInPlace runs explore and reports whether the first Step that
// broke an invariant stepped a model that had been stepped before: under
// snapshot exploration, a frontier base stepped in place for its last
// successor, rather than a fresh clone. (The root's in-place step is its
// first, so a violation there would read as found on a clone.)
func violationInPlace(explore func()) bool {
	hook := testStepHook
	defer func() { testStepHook = hook }()
	steps := map[*Model]int{}
	failed, inPlace := false, false
	testStepHook = func(m *Model, gi int, mm *msg.Msg, hit bool) func() {
		after := hook(m, gi, mm, hit)
		steps[m]++
		return func() {
			after()
			if !failed && m.checkInvariants() != nil {
				failed, inPlace = true, steps[m] > 1
			}
		}
	}
	explore()
	return inPlace
}

func mustTest(t *testing.T, name string) litmus.Test {
	t.Helper()
	lt, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("no %s test", name)
	}
	return lt
}

// TestOutcomeConflictIsInvariantNotPanic: a terminal state whose caches
// hold irreconcilable copies (here: two shared-state frames with
// different data, which passes SWMR) must surface as a VInvariant
// counterexample with a replayable path — the Outcome computation used
// to panic on it and take the whole checker process down.
func TestOutcomeConflictIsInvariantNotPanic(t *testing.T) {
	lt := litmus.Test{
		Name:    "terminal-conflict",
		Vars:    []litmus.Var{"x"},
		Threads: []litmus.Thread{{}, {}},
	}
	mcfg := ModelConfig{Test: lt, Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
		MCMs: [2]cpu.MCM{cpu.WMO, cpu.WMO}, Sync: litmus.SyncFull}
	addr := mem.LineAddr(0x40000)
	setRootMutate(t, func(m *Model) {
		for i := 0; i < 2; i++ {
			e := m.threads()[i].l1.Cache().Install(addr)
			e.State = 1 // stS: two shared copies keep SWMR happy...
			e.Data = mem.Data{uint64(i + 1)}
			e.DataValid = true // ...but their payloads disagree.
		}
	})

	_, err := Check(mcfg, CheckerConfig{MaxStates: 1000})
	cex := asCex(t, err)
	if cex.Kind != VInvariant {
		t.Fatalf("kind = %v, want VInvariant", cex.Kind)
	}
	if want := "shared copies"; !contains(cex.Msg, want) {
		t.Fatalf("message %q does not mention %q", cex.Msg, want)
	}

	// The minimized witness must replay to the same verdict.
	res, err := Replay(mcfg, cex.Path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != VInvariant || res.Msg != cex.Msg {
		t.Fatalf("replay = (%v, %q), want (VInvariant, %q)", res.Kind, res.Msg, cex.Msg)
	}
	if n := ModelsLive(); n != 0 {
		t.Errorf("%d models leaked through the Outcome-error path", n)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
