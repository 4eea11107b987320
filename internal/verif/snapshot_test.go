package verif

import (
	"testing"

	"c3/internal/cpu"
	"c3/internal/litmus"
)

// mpCXL is the canonical small configuration for snapshot tests.
func mpCXL(t testing.TB, sync litmus.SyncMode) ModelConfig {
	tc, ok := litmus.ByName("MP")
	if !ok {
		t.Fatal("no MP test")
	}
	return ModelConfig{
		Test:   tc,
		Locals: [2]string{"mesi", "mesi"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:   sync,
	}
}

// fingerprintOf returns the model's state fingerprint under the
// identity renaming alone, so no symmetric sibling can mask a difference.
func fingerprintOf(m *Model) uint64 {
	h, _ := m.fingerprint(newSymmetry(m).identityOnly())
	return h
}

// TestCloneIsolation: a clone hashes identically to its parent, and
// stepping either one leaves the other untouched.
func TestCloneIsolation(t *testing.T) {
	m, err := Build(mpCXL(t, litmus.SyncFull))
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	h0 := fingerprintOf(m)
	c := m.Clone()
	if fingerprintOf(c) != h0 {
		t.Fatal("clone hash differs from parent")
	}
	acts := c.Fabric.Enabled()
	if len(acts) == 0 {
		t.Fatal("no enabled actions at root")
	}
	c.Step(acts[0])
	if fingerprintOf(m) != h0 {
		t.Fatal("stepping the clone mutated the parent")
	}
	if fingerprintOf(c) == h0 {
		t.Fatal("stepping the clone left its fingerprint unchanged")
	}
	m.Step(m.Fabric.Enabled()[0])
	if fingerprintOf(m) != fingerprintOf(c) {
		t.Fatal("same delivery on parent and clone diverged")
	}
}

// TestCloneMatchesReplayDeepPath walks one delivery path two ways —
// snapshot-cloning at every step versus re-executing the grown prefix on
// a fresh model — and demands identical state hashes throughout. This is
// the per-step form of the snapshot/replay equivalence the checker
// relies on.
func TestCloneMatchesReplayDeepPath(t *testing.T) {
	mcfg := mpCXL(t, litmus.SyncFull)
	cur, err := Build(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cur.Start()
	var path []uint16
	for step := 0; step < 12; step++ {
		acts := cur.Fabric.Enabled()
		if len(acts) == 0 {
			break
		}
		ai := step % len(acts)
		next := cur.Clone()
		next.Step(next.Fabric.Enabled()[ai])
		path = append(path, uint16(ai))

		fresh, err := Build(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Start()
		for _, pi := range path {
			fresh.Step(fresh.Fabric.Enabled()[pi])
		}
		if fingerprintOf(next) != fingerprintOf(fresh) {
			t.Fatalf("step %d (path %v): clone hash != replay hash", step, path)
		}
		cur = next
	}
}

func reportsEqual(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.States != b.States || a.Terminals != b.Terminals ||
		a.Truncated != b.Truncated || a.MaxDepth != b.MaxDepth ||
		a.ForbiddenSkipped != b.ForbiddenSkipped || len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: reports differ:\n  %+v\n  %+v", label, a, b)
	}
	for o := range a.Outcomes {
		if !b.Outcomes[o] {
			t.Fatalf("%s: outcome %q missing", label, o)
		}
	}
}

// TestSnapshotMatchesReplayFromRoot: the snapshot checker and the
// replay-from-root checker must produce identical Reports (everything
// except the Builds/Clones cost counters) on the same configuration —
// including under truncation, relaxed sync, eviction pressure and a
// starved snapshot budget.
func TestSnapshotMatchesReplayFromRoot(t *testing.T) {
	configs := []struct {
		name string
		mcfg ModelConfig
		max  uint64
	}{
		{"MP-full", mpCXL(t, litmus.SyncFull), 60_000},
		{"MP-unsynced-truncated", mpCXL(t, litmus.SyncNone), 3_000},
	}
	{
		mcfg := mpCXL(t, litmus.SyncFull)
		mcfg.TinyLLC = true
		configs = append(configs, struct {
			name string
			mcfg ModelConfig
			max  uint64
		}{"MP-tinyllc", mcfg, 20_000})
	}
	for _, c := range configs {
		base, err := Check(c.mcfg, CheckerConfig{MaxStates: c.max})
		if err != nil {
			t.Fatalf("%s snapshot: %v", c.name, err)
		}
		variants := []CheckerConfig{
			{MaxStates: c.max, ReplayFromRoot: true},
			{MaxStates: c.max, snapshotBudget: 1},
		}
		for i, ccfg := range variants {
			got, err := Check(c.mcfg, ccfg)
			if err != nil {
				t.Fatalf("%s variant %d: %v", c.name, i, err)
			}
			reportsEqual(t, c.name, base, got)
			// Replay-from-root rebuilds every state, POR probes
			// included, so it shares no backing with another model.
			if ccfg.ReplayFromRoot && got.Clones != 0 {
				t.Errorf("%s variant %d: %d clones under ReplayFromRoot", c.name, i, got.Clones)
			}
		}
	}
}

// TestSnapshotBuildsFarFewer is the cost-profile gate: on the CXL MP
// shape the snapshot checker must do at least 5x fewer full model
// constructions per explored state than replay-from-root. (In practice
// it does exactly one Build — the root.)
func TestSnapshotBuildsFarFewer(t *testing.T) {
	mcfg := mpCXL(t, litmus.SyncFull)
	snap, err := Check(mcfg, CheckerConfig{MaxStates: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(mcfg, CheckerConfig{MaxStates: 60_000, ReplayFromRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	if snap.States != rep.States {
		t.Fatalf("strategies explored different spaces: %d vs %d states", snap.States, rep.States)
	}
	if snap.Builds == 0 || rep.Builds < 5*snap.Builds {
		t.Fatalf("snapshot checker built %d models vs %d for replay-from-root (want >=5x fewer)",
			snap.Builds, rep.Builds)
	}
	t.Logf("states=%d: snapshot %d builds + %d clones, replay-from-root %d builds",
		snap.States, snap.Builds, snap.Clones, rep.Builds)
}

// BenchmarkCheckerExpand measures exhaustive exploration of the CXL MP
// shape. Compare -bench with ReplayFromRoot (below) for the snapshot
// speedup; b.ReportMetric exposes the construction cost per state.
func BenchmarkCheckerExpand(b *testing.B) {
	benchCheck(b, CheckerConfig{MaxStates: 60_000})
}

func BenchmarkCheckerExpandReplayFromRoot(b *testing.B) {
	benchCheck(b, CheckerConfig{MaxStates: 60_000, ReplayFromRoot: true})
}

func benchCheck(b *testing.B, ccfg CheckerConfig) {
	mcfg := mpCXL(b, litmus.SyncFull)
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = Check(mcfg, ccfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if rep != nil {
		b.ReportMetric(float64(rep.Builds)/float64(rep.States), "builds/state")
		b.ReportMetric(float64(rep.Clones)/float64(rep.States), "clones/state")
		b.ReportMetric(float64(rep.States), "states")
	}
}

// BenchmarkFingerprint measures the state fingerprint on its own: once
// per state on a mid-protocol MP model (MP admits only the identity
// renaming) and once per renaming on a mid-protocol MP+3W model, whose
// group has two. The fingerprint writes fixed-width words straight into
// the hasher, so it allocates nothing.
func BenchmarkFingerprint(b *testing.B) {
	for _, name := range []string{"MP", "MP+3W"} {
		b.Run(name, func(b *testing.B) {
			mcfg := wmoCXL(b, name, litmus.SyncFull)
			m, err := Build(mcfg)
			if err != nil {
				b.Fatal(err)
			}
			sym := newSymmetry(m)
			m.Start()
			for i := 0; i < 6; i++ {
				acts := m.Fabric.Enabled()
				if len(acts) == 0 {
					break
				}
				m.Step(acts[0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fingerprintSink, _ = m.fingerprint(sym)
			}
			b.ReportMetric(float64(len(sym.perms)), "renamings")
		})
	}
}

var fingerprintSink uint64

// BenchmarkCloneSnapshot measures the clone+step+release primitive in
// isolation (the unit BenchmarkCheckerExpand multiplies). With COW
// backings a clone is O(dirty): the per-op allocations cover the
// component graph, never the cache frame slabs or the DRAM store.
func BenchmarkCloneSnapshot(b *testing.B) {
	m, err := Build(mpCXL(b, litmus.SyncFull))
	if err != nil {
		b.Fatal(err)
	}
	m.Start()
	for i := 0; i < 6; i++ {
		acts := m.Fabric.Enabled()
		if len(acts) == 0 {
			break
		}
		m.Step(acts[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		if acts := c.Fabric.Enabled(); len(acts) > 0 {
			c.Step(acts[0])
		}
		c.Release()
	}
}
