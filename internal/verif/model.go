package verif

import (
	"fmt"
	"sort"
	"strings"

	"c3/internal/cpu"
	"c3/internal/litmus"
	"c3/internal/mem"
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
type Model struct {
	cfg    ModelConfig
	K      *sim.Kernel
	Fabric *ChoiceFabric

	// groups are the model's ownership groups, shared with its clones
	// until a delivery reaches them (see group): one per thread in thread
	// order, then one per cluster, then the home.
	groups []*group
	// groupOf maps a node id to the index in groups of the group that
	// owns it (-1 for an id no component has). Computed once at Build
	// and shared (read-only) by every clone.
	groupOf []int

	// addrs is each variable's address (Test.Vars order) and addrLines
	// their sorted lines. Computed once at Build and shared (read-only)
	// by every clone: the invariant checks walk addrLines for each
	// expanded state.
	addrs     []mem.Addr
	addrLines []mem.LineAddr

	// released makes Release idempotent and keeps the modelsLive pool
	// accounting exact even if a model reaches two release paths.
	released bool
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
	m := &Model{cfg: cfg, K: &sim.Kernel{}, Fabric: &ChoiceFabric{}}
	sys, err := system.Assemble(system.Config{
		Global: cfg.Global, LLCSize: llcSize, LLCWays: 2,
		Clusters: []system.ClusterConfig{
			{Protocol: cfg.Locals[0], MCM: cfg.MCMs[0], Cores: lay.Cores[0], L1: l1},
			{Protocol: cfg.Locals[1], MCM: cfg.MCMs[1], Cores: lay.Cores[1], L1: l1},
		},
	}, m.K, m.Fabric)
	if err != nil {
		return nil, fmt.Errorf("verif: %w", err)
	}
	for ti, p := range lay.Threads {
		l1 := sys.Clusters[p.Cluster].L1s[p.Slot].(*hostproto.L1)
		src := cpu.NewSliceSource(p.Prog)
		c := cpu.New(ti, m.K, cpu.DefaultConfig(cfg.MCMs[p.Cluster]), l1, src, nil)
		m.groups = append(m.groups, &group{core: c, src: src, l1: l1})
	}
	for _, cl := range sys.Clusters {
		m.groups = append(m.groups, &group{c3: cl.C3})
	}
	m.groups = append(m.groups, &group{dram: sys.DRAM, dcoh: sys.DCOH, hdir: sys.HDir})
	for gi, g := range m.groups {
		g.refs, g.owner = 1, m
		for int(g.node()) >= len(m.groupOf) {
			m.groupOf = append(m.groupOf, -1)
		}
		m.groupOf[g.node()] = gi
	}
	m.addrs = lay.Addrs
	for _, a := range lay.Addrs {
		m.addrLines = append(m.addrLines, a.Line())
	}
	sort.Slice(m.addrLines, func(i, j int) bool { return m.addrLines[i] < m.addrLines[j] })
	modelsLive.Add(1)
	return m, nil
}

// Start launches cores and quiesces internal events.
func (m *Model) Start() {
	for _, t := range m.threads() {
		t.core.Start()
	}
	m.Quiesce()
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
// parent or a sibling is copied, and the other groups stay shared.
func (m *Model) Step(a Action) {
	gi := m.groupOf[m.Fabric.Peek(a).Dst]
	m.own(gi)
	var after func()
	if testStepHook != nil {
		after = testStepHook(m, gi)
	}
	m.Fabric.Deliver(a)
	m.Quiesce()
	if after != nil {
		after()
	}
}

// testStepHook, when non-nil, brackets every Step: it runs once the
// model owns the stepped group gi, before the delivery, and the function
// it returns runs after the step quiesces. The verif tests install the
// ownership check here (ownership_test.go).
var testStepHook func(m *Model, gi int) (after func())

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
	for vi, v := range m.cfg.Test.Vars {
		addr := m.addrs[vi]
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
func (m *Model) lines() []mem.LineAddr { return m.addrLines }
