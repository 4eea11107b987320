package verif

import (
	"fmt"
	"sort"
	"strings"

	"c3/internal/cpu"
	"c3/internal/litmus"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/protocol/hostproto"
	"c3/internal/sim"
	"c3/internal/ssp"
	"c3/internal/system"
)

// ModelConfig describes the (small) system under verification.
type ModelConfig struct {
	Test   litmus.Test
	Locals [2]string
	Global string
	MCMs   [2]cpu.MCM
	Sync   litmus.SyncMode
	// TinyLLC forces CXL-cache evictions into the explored space.
	TinyLLC bool
}

// ModelFor resolves a litmus test by name into the ModelConfig that
// Check and Replay take: its program refined per thread MCM (SyncFull),
// or stripped of every fence and annotation when unsynced (SyncNone).
// The caller fills in the machine (Locals, Global, MCMs, TinyLLC).
func ModelFor(test string, unsynced bool) (ModelConfig, error) {
	tc, ok := litmus.ByName(test)
	if !ok {
		return ModelConfig{}, fmt.Errorf("verif: unknown litmus test %q", test)
	}
	sync := litmus.SyncFull
	if unsynced {
		sync = litmus.SyncNone
	}
	return ModelConfig{Test: tc, Sync: sync}, nil
}

// Model is one instantiated system plus the handles the explorer needs.
// It holds its kernel, fabric and group slots by value and shares the
// rest with every model of its Build, so a clone is one allocation.
type Model struct {
	K      sim.Kernel
	Fabric ChoiceFabric

	// b is what every model of one Build shares.
	b *build

	// groups are the model's ownership groups, shared with its clones
	// until a delivery reaches them (see group): one per thread in thread
	// order, then one per cluster, then the home. They live in slots
	// unless the test has more threads than slots holds.
	groups []*group
	slots  [8]*group

	// released makes Release idempotent and keeps the modelsLive pool
	// accounting exact even if a model reaches two release paths.
	released bool
}

// build is what Build computes once and every clone of its model
// shares: read-only but for spares, which the model stepping at the
// moment holds (see Model.Step).
type build struct {
	cfg ModelConfig

	// groupOf maps a node id to the index in groups of the group that
	// owns it (-1 for an id no component has).
	groupOf []int

	// addrs is each variable's address (Test.Vars order) and addrLines
	// their sorted lines: the invariant checks walk addrLines for each
	// expanded state.
	addrs     []mem.Addr
	addrLines []mem.LineAddr

	// spares is the kernel storage — the event free list among it — that
	// the models of this Build run on in turn.
	spares sim.Spares

	// memo is the transition memo of the exploration the models of this
	// Build belong to, or nil (see Model.Step).
	memo *memo
}

// threads returns the thread groups, in thread order.
func (m *Model) threads() []*group { return m.groups[:len(m.groups)-3] }

// clusters returns the two cluster groups, in cluster order.
func (m *Model) clusters() []*group { return m.groups[len(m.groups)-3 : len(m.groups)-1] }

// home returns the home group.
func (m *Model) home() *group { return m.groups[len(m.groups)-1] }

// mesiFamily lists the local protocols the checker builds clusters of.
// RCC hosts keep intentionally stale copies, which the SWMR invariant
// would flag, so RCC is covered by the litmus runner instead.
var mesiFamily = []string{"mesi", "moesi", "mesif"}

// CheckLocal returns an error unless the checker can build clusters
// running local protocol name (the MESI family).
func CheckLocal(name string) error {
	for _, f := range mesiFamily {
		if strings.EqualFold(name, f) {
			return nil
		}
	}
	return fmt.Errorf("local protocol %q: the model checker covers the MESI family (%s) only",
		name, strings.Join(mesiFamily, "|"))
}

// Build instantiates a fresh model (deterministic): the machine
// system.Assemble wires for the test's litmus.Place layout, on a
// ChoiceFabric. Small caches keep replay cheap (litmus footprints are a
// couple of lines): a 4 KiB 4-way L1, whose 16 sets the fingerprint's
// set-conflict gates assume, and an 8 KiB 2-way LLC, shrunk under
// TinyLLC to 2 sets x 2 ways to force Fig. 7 evictions into the
// explored space.
func Build(cfg ModelConfig) (*Model, error) {
	for ci, name := range cfg.Locals {
		if err := CheckLocal(name); err != nil {
			return nil, fmt.Errorf("verif: cluster %d: %w", ci, err)
		}
	}
	lay := litmus.Place(cfg.Test, cfg.MCMs, cfg.Sync)
	llcSize := 8 * 1024
	if cfg.TinyLLC {
		llcSize = 2 * mem.LineBytes * 2
	}
	l1 := hostproto.DefaultConfig(hostproto.MESI) // system sets each cluster's variant
	l1.SizeBytes, l1.Ways = 4096, 4
	m := &Model{b: &build{cfg: cfg}}
	m.groups = m.slots[:0]
	sys, err := system.Assemble(system.Config{
		Global: cfg.Global, LLCSize: llcSize, LLCWays: 2,
		Clusters: []system.ClusterConfig{
			{Protocol: cfg.Locals[0], MCM: cfg.MCMs[0], Cores: lay.Cores[0], L1: l1},
			{Protocol: cfg.Locals[1], MCM: cfg.MCMs[1], Cores: lay.Cores[1], L1: l1},
		},
	}, &m.K, &m.Fabric)
	if err != nil {
		return nil, fmt.Errorf("verif: %w", err)
	}
	for ti, p := range lay.Threads {
		l1 := sys.Clusters[p.Cluster].L1s[p.Slot].(*hostproto.L1)
		src := cpu.NewSliceSource(p.Prog)
		c := cpu.New(ti, &m.K, cpu.DefaultConfig(cfg.MCMs[p.Cluster]), l1, src, nil)
		m.groups = append(m.groups, &group{core: c, src: src, l1: l1})
	}
	for _, cl := range sys.Clusters {
		m.groups = append(m.groups, &group{c3: cl.C3})
	}
	m.groups = append(m.groups, &group{dram: sys.DRAM, dcoh: sys.DCOH, hdir: sys.HDir})
	b := m.b
	for gi, g := range m.groups {
		g.refs, g.owner = 1, m
		for int(g.node()) >= len(b.groupOf) {
			b.groupOf = append(b.groupOf, -1)
		}
		b.groupOf[g.node()] = gi
	}
	b.addrs = lay.Addrs
	for _, a := range lay.Addrs {
		b.addrLines = append(b.addrLines, a.Line())
	}
	sort.Slice(b.addrLines, func(i, j int) bool { return b.addrLines[i] < b.addrLines[j] })
	modelsLive.Add(1)
	return m, nil
}

// Start launches cores and quiesces internal events.
func (m *Model) Start() {
	m.K.SwapSpares(&m.b.spares)
	for _, t := range m.threads() {
		t.core.Start()
	}
	m.Quiesce()
	m.K.SwapSpares(&m.b.spares)
}

// Quiesce drains all kernel events (controller latencies, core pumps,
// DRAM callbacks). Message deliveries happen only through the fabric, so
// this always terminates.
func (m *Model) Quiesce() {
	if !m.K.RunLimit(1_000_000) {
		panic("verif: kernel did not quiesce")
	}
}

// Step delivers one fabric action and quiesces. The delivery runs only
// the group owning its destination node (see group), so Step first makes
// that group the model's own (Model.own): a group still shared with a
// parent or a sibling is copied, and the other groups stay shared. The
// events the delivery schedules come from the free list every model of
// the Build runs on in turn: the kernel holds it until it drains.
//
// Under an exploration's transition memo, a delivery whose group state
// and message the memo has seen runs nothing: the memo swaps in the
// group that delivery left and replays its sends (memo.reuse). Any other
// delivery runs as above while the memo records its sends, and the memo
// keeps the group it leaves.
func (m *Model) Step(a Action) {
	mm := m.Fabric.take(a)
	gi := m.b.groupOf[mm.Dst]
	mo := m.b.memo
	var k memoKey
	if mo.on() {
		k = mo.key(m, gi, mm)
		if e, ok := mo.table[k]; ok {
			after := m.stepHook(gi, mm, true)
			mo.reuse(m, gi, e)
			after()
			return
		}
	}
	g := m.own(gi)
	after := m.stepHook(gi, mm, false)
	if mo.on() {
		mo.record(m)
	}
	m.deliver(g, mm)
	if mo.on() {
		mo.store(k, m)
	}
	after()
}

// stepHook runs testStepHook, when set, and returns what to run after
// the step.
func (m *Model) stepHook(gi int, mm *msg.Msg, hit bool) (after func()) {
	if testStepHook == nil {
		return func() {}
	}
	return testStepHook(m, gi, mm, hit)
}

// deliver hands mm to g, a group m owns alone, and quiesces.
func (m *Model) deliver(g *group, mm *msg.Msg) {
	m.K.SwapSpares(&m.b.spares)
	g.recv(m, mm)
	m.Quiesce()
	m.K.SwapSpares(&m.b.spares)
}

// testStepHook, when non-nil, brackets every Step of the delivery mm to
// group gi. On a memo hit it runs before the recorded entry applies, with
// hit set; otherwise once the model owns group gi, before the delivery.
// The function it returns runs after the step. The verif tests install
// the ownership, fabric hash and memo checks here (ownership_test.go).
var testStepHook func(m *Model, gi int, mm *msg.Msg, hit bool) (after func())

// AllFinished reports whether every core retired its program.
func (m *Model) AllFinished() bool {
	for _, t := range m.threads() {
		if !t.core.Finished() {
			return false
		}
	}
	return true
}

// settle classifies a state with no enabled delivery: VDeadlock when
// cores are stuck, VInvariant for an incoherent terminal (see Outcome),
// and otherwise VNone with the terminal's outcome. A new end-state
// violation kind is one more case here.
func (m *Model) settle() (litmus.Outcome, ViolationKind, string) {
	if !m.AllFinished() {
		return nil, VDeadlock, "cores stuck with empty fabric"
	}
	o, err := m.Outcome()
	if err != nil {
		return nil, VInvariant, err.Error()
	}
	return o, VNone, ""
}

// Outcome gathers thread registers and final memory values. An error
// means the terminal state is incoherent (conflicting exclusive owners,
// a line still busy, or disagreeing shared copies) — settle surfaces
// it as a VInvariant verdict rather than panicking.
func (m *Model) Outcome() (litmus.Outcome, error) {
	o := litmus.Outcome{}
	for i, t := range m.threads() {
		t.src.EachReg(func(reg int, val uint64) { o[litmus.Key(i, reg)] = val })
	}
	for vi, v := range m.b.cfg.Test.Vars {
		addr := m.b.addrs[vi]
		val, err := m.finalValue(addr.Line())
		if err != nil {
			return nil, err
		}
		o[string(v)] = val.Word(addr.WordIndex())
	}
	return o, nil
}

// finalValue resolves the authoritative copy of a line at a terminal
// state and checks that all valid copies agree where they must.
func (m *Model) finalValue(a mem.LineAddr) (mem.Data, error) {
	// An exclusive host copy is authoritative.
	var owners []mem.Data
	var shared []mem.Data
	for _, t := range m.threads() {
		if e := t.l1.Cache().ProbeRO(a); e != nil {
			// E owns too: it may be silently dirty.
			switch valid, _, owns := hostproto.Classify(e.State); {
			case owns:
				owners = append(owners, e.Data)
			case valid:
				shared = append(shared, e.Data)
			}
		}
	}
	if len(owners) > 1 {
		return mem.Data{}, fmt.Errorf("verif: %d exclusive owners of %v", len(owners), a)
	}
	if len(owners) == 1 {
		return owners[0], nil
	}
	// Next: a dirty CXL-cache copy.
	for _, cl := range m.clusters() {
		_, g, busy := cl.c3.CompoundOf(a)
		if busy {
			return mem.Data{}, fmt.Errorf("verif: line %v busy at terminal state", a)
		}
		if g == ssp.ClsM || g == ssp.ClsE {
			if d, ok := cl.c3.LLCData(a); ok {
				return d, nil
			}
		}
	}
	if len(shared) > 0 {
		for _, s := range shared[1:] {
			if s != shared[0] {
				return mem.Data{}, fmt.Errorf("verif: shared copies of %v disagree", a)
			}
		}
		return shared[0], nil
	}
	return m.home().dram.Peek(a), nil
}

// lines returns the sorted line addresses of interest (the test's
// variables), cached at Build and shared read-only across clones.
func (m *Model) lines() []mem.LineAddr { return m.b.addrLines }
