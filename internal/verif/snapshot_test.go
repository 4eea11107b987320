package verif

import (
	"strings"
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
// identity renaming alone, so no symmetric sibling can mask a difference,
// hashed from the state rather than the group caches, so a write that
// left a stale cache behind shows too.
func fingerprintOf(m *Model) uint64 {
	m.dropHashes()
	h, _ := m.fingerprint(newSymmetry(m).identityOnly())
	return h
}

// TestDropHashesForgetsInvariantSummary: code that writes a model
// outside Step calls dropHashes, which must drop the groups' cached
// invariant summaries with their hashes, or the next check reads the
// state before the write.
func TestDropHashesForgetsInvariantSummary(t *testing.T) {
	m, err := Build(mpCXL(t, litmus.SyncFull))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Start()
	if err := m.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	line := m.lines()[0]
	for _, th := range m.threads()[:2] {
		e := th.l1.Cache().Probe(line)
		if e == nil {
			e = th.l1.Cache().Install(line)
		}
		e.State = 3 // stM: two writers
	}
	m.dropHashes()
	if err := m.checkInvariants(); err == nil || !strings.Contains(err.Error(), "2 writers") {
		t.Fatalf("after two M copies and dropHashes, checkInvariants = %v, want an SWMR violation", err)
	}
}

// TestCloneIsolation: a clone hashes identically to its parent, and
// stepping either one leaves the other untouched — also when the parent
// steps a group it built but now shares, and when a clone steps groups
// it holds alone but that are bound to its released parent.
func TestCloneIsolation(t *testing.T) {
	t.Run("parent-stepped", func(t *testing.T) {
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
		// The parent owns every group but shares all of them with c (the
		// one c stepped is c's copy): stepping the parent must copy too.
		c2 := m.Clone()
		m.Step(m.Fabric.Enabled()[0])
		if fingerprintOf(m) != fingerprintOf(c) {
			t.Fatal("same delivery on parent and clone diverged")
		}
		if fingerprintOf(c2) != h0 {
			t.Fatal("stepping the parent mutated a clone taken before the step")
		}
		for _, x := range []*Model{m, c, c2} {
			x.Release()
		}
	})
	t.Run("parent-released", func(t *testing.T) {
		mcfg := mpCXL(t, litmus.SyncFull)
		m, err := Build(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		// Each generation clones its parent and releases it, so the child
		// holds every untouched group alone while they stay bound to a
		// released model's kernel and fabric. Stepping a group must copy
		// it first, and every state must equal the replay of its path.
		var path []uint16
		for step := 0; step < 10; step++ {
			acts := m.Fabric.Enabled()
			if len(acts) == 0 {
				break
			}
			ai := (3 * step) % len(acts)
			c := m.Clone()
			m.Release()
			c.Step(c.Fabric.Enabled()[ai])
			path = append(path, uint16(ai))
			fresh, err := replay(mcfg, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprintOf(c) != fingerprintOf(fresh) {
				t.Fatalf("step %d (path %v): state of a released parent's clone != replay", step, path)
			}
			fresh.Release()
			m = c
		}
		m.Release()
	})
}

// TestDeliveryToUnownedNodePanics: a clone shares every group with its
// parent until Step copies the one a delivery reaches, so a delivery
// that bypasses Step, and with it that copy, must fail loudly instead
// of running a component the parent still holds.
func TestDeliveryToUnownedNodePanics(t *testing.T) {
	m, err := Build(mpCXL(t, litmus.SyncFull))
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	c := m.Clone()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a delivery to a node the clone does not own did not panic")
		}
		if s, _ := r.(string); !strings.Contains(s, "does not own alone") {
			t.Fatalf("panic %v does not name the unowned group", r)
		}
		c.Release()
		m.Release()
	}()
	mm := c.Fabric.take(c.Fabric.Enabled()[0])
	c.groups[c.b.groupOf[mm.Dst]].recv(c, mm)
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
	withoutStepChecks(b)
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
// group has two. Each op first drops every group's cached hashes, so it
// times a cold hash of the whole state under every renaming, as a
// model's first fingerprint pays. The fingerprint writes fixed-width
// words straight into the hasher and the caches into storage the groups
// already hold, so it allocates nothing.
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
			m.fingerprint(sym) // size the caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.dropHashes()
				fingerprintSink, _ = m.fingerprint(sym)
			}
			b.ReportMetric(float64(len(sym.perms)), "renamings")
		})
	}
}

var fingerprintSink uint64

// BenchmarkCloneSnapshot measures the clone+step+release primitive in
// isolation (the unit BenchmarkCheckerExpand multiplies). A clone copies
// the kernel and the fabric and shares every ownership group; the step
// copies the one group its delivery reaches, whose caches and tables
// are COW in turn. So the per-op allocations cover one group's
// components and the step's sends, never the other groups, the cache
// frame slabs or the DRAM store.
func BenchmarkCloneSnapshot(b *testing.B) {
	withoutStepChecks(b)
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
