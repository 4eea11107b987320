package litmus

import (
	"reflect"
	"testing"

	"c3/internal/cpu"
)

func TestCorpusShape(t *testing.T) {
	tests := Tests()
	if len(tests) < 12 {
		t.Fatalf("corpus has %d tests, want >= 12", len(tests))
	}
	for _, name := range TableIVNames() {
		if _, ok := ByName(name); !ok {
			t.Errorf("Table IV test %q missing", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName should miss unknown tests")
	}
	for _, tc := range tests {
		if tc.Forbidden == nil || tc.Observable == nil || len(tc.Threads) == 0 {
			t.Errorf("%s: incomplete test definition", tc.Name)
		}
	}
}

func TestRefineTSO(t *testing.T) {
	// SB keeps its store->load fence under TSO; MP's release/acquire
	// annotations drop entirely.
	sb, _ := ByName("SB")
	r := Refine(sb.Threads[0], cpu.TSO)
	fences := 0
	for _, op := range r {
		if op.Kind == cpu.Fence {
			fences++
		}
	}
	if fences != 1 {
		t.Fatalf("SB refined for TSO has %d fences, want 1 (store->load)", fences)
	}

	mp, _ := ByName("MP")
	r = Refine(mp.Threads[0], cpu.TSO)
	for _, op := range r {
		if op.Kind == cpu.Fence || op.Rel || op.Acq {
			t.Fatalf("MP refined for TSO still has sync: %+v", r)
		}
	}
	// LB's fences (load->store) are free on TSO.
	lb, _ := ByName("LB")
	r = Refine(lb.Threads[0], cpu.TSO)
	for _, op := range r {
		if op.Kind == cpu.Fence {
			t.Fatalf("LB refined for TSO should drop its fence: %+v", r)
		}
	}
	// WMO refinement is the identity.
	r = Refine(sb.Threads[0], cpu.WMO)
	if len(r) != len(sb.Threads[0]) {
		t.Fatal("WMO refinement must keep everything")
	}
	// SC drops all fences.
	r = Refine(sb.Threads[0], cpu.SC)
	for _, op := range r {
		if op.Kind == cpu.Fence {
			t.Fatal("SC refinement should drop fences")
		}
	}
}

func TestStrip(t *testing.T) {
	mp, _ := ByName("MP")
	s := Strip(mp.Threads[1])
	for _, op := range s {
		if op.Acq || op.Rel || op.Kind == cpu.Fence {
			t.Fatalf("Strip left sync behind: %+v", s)
		}
	}
	if len(s) != 2 {
		t.Fatalf("Strip changed op count: %d", len(s))
	}
}

// TestTableIVFast is the in-tree slice of Table IV: every protocol and
// MCM combination, fewer iterations than the paper's 100k (the full
// sweep runs via cmd/c3litmus / BenchmarkTableIV).
func TestTableIVFast(t *testing.T) {
	mcmCombos := []struct {
		name string
		mcms [2]cpu.MCM
	}{
		{"Arm-Arm", [2]cpu.MCM{cpu.WMO, cpu.WMO}},
		{"TSO-Arm", [2]cpu.MCM{cpu.TSO, cpu.WMO}},
		{"TSO-TSO", [2]cpu.MCM{cpu.TSO, cpu.TSO}},
	}
	protoCombos := []struct {
		name   string
		locals [2]string
	}{
		{"MESI-CXL-MESI", [2]string{"mesi", "mesi"}},
		{"MESI-CXL-MOESI", [2]string{"mesi", "moesi"}},
	}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for _, pc := range protoCombos {
		for _, mc := range mcmCombos {
			for _, name := range TableIVNames() {
				tc, _ := ByName(name)
				t.Run(pc.name+"/"+mc.name+"/"+name, func(t *testing.T) {
					res, err := Run(tc, RunnerConfig{
						Locals: pc.locals, Global: "cxl", MCMs: mc.mcms,
						Iters: iters, Sync: SyncFull, BaseSeed: 1234,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Forbidden != 0 {
						t.Fatalf("forbidden outcome observed (%d/%d): %s",
							res.Forbidden, res.Iters, res.ForbiddenExample)
					}
				})
			}
		}
	}
}

// TestRunParallelMatchesSerial: a campaign must produce an identical
// Result — outcome histogram, forbidden count, forbidden example — for
// every worker count, because seeds and start offsets are derived per
// iteration and shards merge in iteration order.
func TestRunParallelMatchesSerial(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for _, name := range []string{"SB", "MP"} {
		tc, _ := ByName(name)
		cfg := RunnerConfig{
			Locals: [2]string{"mesi", "moesi"}, Global: "cxl",
			MCMs:  [2]cpu.MCM{cpu.WMO, cpu.TSO},
			Iters: iters, Sync: SyncNone, BaseSeed: 4242,
		}
		serial := cfg
		serial.Workers = 1
		want, err := Run(tc, serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 7, 8} {
			par := cfg
			par.Workers = workers
			got, err := Run(tc, par)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
				t.Fatalf("%s workers=%d: outcome maps differ\nserial: %v\nparallel: %v",
					name, workers, want.Outcomes, got.Outcomes)
			}
			if got.Forbidden != want.Forbidden || got.ForbiddenExample != want.ForbiddenExample {
				t.Fatalf("%s workers=%d: forbidden %d/%q, serial %d/%q",
					name, workers, got.Forbidden, got.ForbiddenExample,
					want.Forbidden, want.ForbiddenExample)
			}
		}
	}
}

// TestControlsShowForbiddenOutcomes is the paper's vacuity control:
// with synchronization stripped, the relaxed outcome must actually
// appear wherever the participating MCMs permit it.
func TestControlsShowForbiddenOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("control search needs iterations")
	}
	cases := []struct {
		test string
		mcms [2]cpu.MCM
	}{
		{"SB", [2]cpu.MCM{cpu.TSO, cpu.TSO}},
		{"SB", [2]cpu.MCM{cpu.WMO, cpu.WMO}},
		{"MP", [2]cpu.MCM{cpu.WMO, cpu.WMO}},
		{"LB", [2]cpu.MCM{cpu.WMO, cpu.WMO}},
		{"R", [2]cpu.MCM{cpu.WMO, cpu.WMO}},
		{"S", [2]cpu.MCM{cpu.WMO, cpu.WMO}},
		{"2_2W", [2]cpu.MCM{cpu.WMO, cpu.WMO}},
		{"IRIW", [2]cpu.MCM{cpu.WMO, cpu.WMO}},
	}
	for _, c := range cases {
		tc, _ := ByName(c.test)
		mcms := make([]cpu.MCM, len(tc.Threads))
		for i := range mcms {
			mcms[i] = c.mcms[clusterOf(i)]
		}
		if !tc.Observable(mcms) {
			t.Fatalf("%s: test setup claims unobservable under %v", c.test, c.mcms)
		}
		t.Run(c.test, func(t *testing.T) {
			res, err := Run(tc, RunnerConfig{
				Locals: [2]string{"mesi", "mesi"}, Global: "cxl", MCMs: c.mcms,
				Iters: 400, Sync: SyncNone, BaseSeed: 99,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Forbidden == 0 {
				t.Fatalf("relaxed outcome never appeared in %d unsynced runs (outcomes: %d distinct)",
					res.Iters, res.Distinct())
			}
		})
	}
}

// TestCoherenceHoldsUnsynced: CoRR must never fail, synchronization or
// not — it is pure cache coherence.
func TestCoherenceHoldsUnsynced(t *testing.T) {
	tc, _ := ByName("CoRR")
	for _, mcms := range [][2]cpu.MCM{{cpu.WMO, cpu.WMO}, {cpu.TSO, cpu.WMO}} {
		res, err := Run(tc, RunnerConfig{
			Locals: [2]string{"mesi", "moesi"}, Global: "cxl", MCMs: mcms,
			Iters: 60, Sync: SyncNone, BaseSeed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Forbidden != 0 {
			t.Fatalf("coherence violation: %s", res.ForbiddenExample)
		}
	}
}

// TestTSOWriterNeedsNoStoreStoreFence reproduces the paper's selective
// fence-removal experiment: in MP, with thread 0 on a TSO core and its
// release annotation dropped (plain stores — TSO orders them), no
// forbidden outcome may appear as long as the ARM reader keeps its
// acquire. Removing the reader's acquire instead must expose reordering.
func TestTSOWriterNeedsNoStoreStoreFence(t *testing.T) {
	if testing.Short() {
		t.Skip("needs iterations")
	}
	mp, _ := ByName("MP")

	// Variant A: writer stripped (runs on TSO), reader fully synced.
	a := mp
	a.Threads = []Thread{Strip(mp.Threads[0]), mp.Threads[1]}
	resA, err := Run(a, RunnerConfig{
		Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
		MCMs:  [2]cpu.MCM{cpu.TSO, cpu.WMO},
		Iters: 300, Sync: SyncFull, BaseSeed: 21, IssueJitter: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resA.Forbidden != 0 {
		t.Fatalf("TSO store-store order violated: %s", resA.ForbiddenExample)
	}

	// Variant B: reader's acquire removed (ARM core) — forbidden
	// outcome becomes observable even though the TSO writer is ordered.
	b := mp
	b.Threads = []Thread{mp.Threads[0], Strip(mp.Threads[1])}
	resB, err := Run(b, RunnerConfig{
		Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
		MCMs:  [2]cpu.MCM{cpu.TSO, cpu.WMO},
		Iters: 300, Sync: SyncFull, BaseSeed: 22, IssueJitter: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Forbidden == 0 {
		t.Fatal("dropping the ARM acquire should expose load reordering")
	}
}

// TestAllowedOutcomesObserved: the synced runs should still show several
// legal interleavings (the paper: "all allowed outcomes were observed").
func TestAllowedOutcomesObserved(t *testing.T) {
	tc, _ := ByName("SB")
	res, err := Run(tc, RunnerConfig{
		Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
		MCMs:  [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Iters: 120, Sync: SyncFull, BaseSeed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct() < 2 {
		t.Fatalf("only %d distinct outcomes; races not exercised", res.Distinct())
	}
}

// TestHMESIGlobalLitmus: the baseline hierarchical-MESI global protocol
// must preserve the same guarantees.
func TestHMESIGlobalLitmus(t *testing.T) {
	for _, name := range []string{"MP", "SB", "IRIW"} {
		tc, _ := ByName(name)
		res, err := Run(tc, RunnerConfig{
			Locals: [2]string{"mesi", "mesi"}, Global: "hmesi",
			MCMs:  [2]cpu.MCM{cpu.WMO, cpu.TSO},
			Iters: 40, Sync: SyncFull, BaseSeed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Forbidden != 0 {
			t.Fatalf("%s under hmesi: %s", name, res.ForbiddenExample)
		}
	}
}

// TestExtendedCorpusSynced: the non-Table-IV shapes (WRC, RWC, WWC,
// WRW+2W) also hold when fully synchronized.
func TestExtendedCorpusSynced(t *testing.T) {
	for _, name := range []string{"WRC", "RWC", "WWC", "WRW+2W"} {
		tc, _ := ByName(name)
		res, err := Run(tc, RunnerConfig{
			Locals: [2]string{"moesi", "mesif"}, Global: "cxl",
			MCMs:  [2]cpu.MCM{cpu.WMO, cpu.WMO},
			Iters: 40, Sync: SyncFull, BaseSeed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Forbidden != 0 {
			t.Fatalf("%s: %s", name, res.ForbiddenExample)
		}
	}
}

// TestRCCClusterLitmus: litmus tests with a release-consistency (RCC)
// cluster on one side — the acquire/release flows of Sec. IV-D2 must
// still forbid the forbidden outcomes.
func TestRCCClusterLitmus(t *testing.T) {
	for _, name := range []string{"MP", "SB", "S"} {
		tc, _ := ByName(name)
		res, err := Run(tc, RunnerConfig{
			Locals: [2]string{"rcc", "mesi"}, Global: "cxl",
			MCMs:  [2]cpu.MCM{cpu.WMO, cpu.TSO},
			Iters: 60, Sync: SyncFull, BaseSeed: 17,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Forbidden != 0 {
			t.Fatalf("%s on RCC-CXL-MESI: %s", name, res.ForbiddenExample)
		}
	}
}

// TestRCCStaleReadWithoutAcquire is the RCC-specific vacuity control:
// a reader that cached x earlier and omits the acquire on the flag load
// can read the *stale* x after seeing the flag — self-invalidation is
// what acquire buys (footnote 5 of the paper). With the acquire in
// place, the outcome is forbidden and never appears.
func TestRCCStaleReadWithoutAcquire(t *testing.T) {
	if testing.Short() {
		t.Skip("control search")
	}
	base := Test{
		Name: "MP-rcc-stale",
		Vars: []Var{"x", "y"},
		Threads: []Thread{
			// Writer on the MESI/TSO side keeps full synchronization.
			{St("x", 1), StRel("y", 1)},
			// RCC reader: warm x into the cache, then flag + data reads.
			{Ld("x", 9), LdAcq("y", 0), Ld("x", 1)},
		},
		Forbidden: func(o Outcome) bool {
			return o[Key(1, 0)] == 1 && o[Key(1, 1)] == 0
		},
		Observable: func(m []cpu.MCM) bool { return true },
	}
	cfg := RunnerConfig{
		// Thread 1 (odd) lands on cluster 1: make that the RCC cluster.
		Locals: [2]string{"mesi", "rcc"}, Global: "cxl",
		MCMs:  [2]cpu.MCM{cpu.TSO, cpu.WMO},
		Iters: 300, BaseSeed: 23,
	}

	// Synced: the acquire self-invalidates the stale copy — clean.
	res, err := Run(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forbidden != 0 {
		t.Fatalf("acquire failed to invalidate stale data: %s", res.ForbiddenExample)
	}

	// Acquire dropped (writer stays synced): the stale cached x shows.
	noAcq := base
	noAcq.Threads = []Thread{base.Threads[0], Strip(base.Threads[1])}
	res, err = Run(noAcq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forbidden == 0 {
		t.Fatal("dropping the RCC acquire should expose the stale cached read")
	}
}

// TestCoherenceOnlyShapes: CoRR2 and CoWW hold with or without
// synchronization — they are cache coherence, not consistency.
func TestCoherenceOnlyShapes(t *testing.T) {
	for _, name := range []string{"CoRR2", "CoWW"} {
		for _, sync := range []SyncMode{SyncFull, SyncNone} {
			tc, _ := ByName(name)
			res, err := Run(tc, RunnerConfig{
				Locals: [2]string{"mesi", "moesi"}, Global: "cxl",
				MCMs:  [2]cpu.MCM{cpu.WMO, cpu.WMO},
				Iters: 50, Sync: sync, BaseSeed: 29,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Forbidden != 0 {
				t.Fatalf("%s (sync=%d): coherence violation %s", name, sync, res.ForbiddenExample)
			}
		}
	}
}

// TestCoRR2Forbidden: a reader's two loads of x may not go backwards in
// the coherence order 0 < (the other write) < final x, in either write
// order, whether one reader or both contradict it.
func TestCoRR2Forbidden(t *testing.T) {
	tc, _ := ByName("CoRR2")
	out := func(r20, r21, r30, r31, x uint64) Outcome {
		return Outcome{Key(2, 0): r20, Key(2, 1): r21, Key(3, 0): r30, Key(3, 1): r31, "x": x}
	}
	for _, c := range []struct {
		o         Outcome
		forbidden bool
	}{
		// The two readers disagree on the write order (both orientations,
		// under either final value).
		{out(1, 2, 2, 1, 2), true},
		{out(1, 2, 2, 1, 1), true},
		{out(2, 1, 1, 2, 2), true},
		{out(2, 1, 1, 2, 1), true},
		// One reader contradicts the order the final value fixes.
		{out(2, 1, 0, 0, 2), true},
		{out(0, 0, 1, 2, 1), true},
		{out(1, 0, 0, 0, 1), true},
		{out(0, 0, 2, 0, 2), true},
		{out(1, 1, 2, 0, 1), true},
		// Allowed: every reader moves forward or stays put.
		{out(0, 0, 0, 0, 1), false},
		{out(0, 1, 0, 2, 2), false},
		{out(1, 2, 0, 1, 2), false},
		{out(2, 1, 0, 1, 1), false},
		{out(2, 2, 1, 1, 1), false},
		{out(0, 2, 2, 2, 2), false},
	} {
		if got := tc.Forbidden(c.o); got != c.forbidden {
			t.Errorf("%s: forbidden = %v, want %v", c.o, got, c.forbidden)
		}
	}
}
