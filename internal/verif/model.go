package verif

import (
	"fmt"
	"sort"
	"strings"

	"c3/internal/core"
	"c3/internal/cpu"
	"c3/internal/litmus"
	"c3/internal/mem"
	"c3/internal/protocol/cxl"
	"c3/internal/protocol/hmesi"
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

// thread is one litmus thread's core, program and host cache.
type thread struct {
	core *cpu.Core
	src  *cpu.SliceSource
	l1   *hostproto.L1
}

// Model is one instantiated system plus the handles the explorer needs.
type Model struct {
	cfg    ModelConfig
	K      *sim.Kernel
	Fabric *ChoiceFabric

	threads []thread
	c3s     [2]*core.C3 // per cluster
	dram    *mem.DRAM
	// one of:
	dcoh *cxl.DCOH
	hdir *hmesi.Dir

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
	m.dram, m.dcoh, m.hdir = sys.DRAM, sys.DCOH, sys.HDir
	for ci, cl := range sys.Clusters {
		m.c3s[ci] = cl.C3
	}
	for ti, p := range lay.Threads {
		l1 := sys.Clusters[p.Cluster].L1s[p.Slot].(*hostproto.L1)
		src := cpu.NewSliceSource(p.Prog)
		c := cpu.New(ti, m.K, cpu.DefaultConfig(cfg.MCMs[p.Cluster]), l1, src, nil)
		m.threads = append(m.threads, thread{c, src, l1})
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
	for _, t := range m.threads {
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

// Step delivers one fabric action and quiesces.
func (m *Model) Step(a Action) {
	m.Fabric.Deliver(a)
	m.Quiesce()
}

// AllFinished reports whether every core retired its program.
func (m *Model) AllFinished() bool {
	for _, t := range m.threads {
		if !t.core.Finished() {
			return false
		}
	}
	return true
}

// Outcome gathers thread registers and final memory values. An error
// means the terminal state is incoherent (conflicting exclusive owners,
// a line still busy, or disagreeing shared copies) — the checker
// surfaces it as a VInvariant counterexample rather than panicking.
func (m *Model) Outcome() (litmus.Outcome, error) {
	o := litmus.Outcome{}
	for i, t := range m.threads {
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
	for _, t := range m.threads {
		if e := t.l1.Cache().ProbeRO(a); e != nil {
			switch e.State {
			case 3, 4: // stM, stO (hostproto encoding)
				owners = append(owners, e.Data)
			case 1, 2, 5: // stS, stE, stF
				if e.State == 2 { // E may be silently dirty
					owners = append(owners, e.Data)
				} else {
					shared = append(shared, e.Data)
				}
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
	for _, c3 := range m.c3s {
		_, g, busy := c3.CompoundOf(a)
		if busy {
			return mem.Data{}, fmt.Errorf("verif: line %v busy at terminal state", a)
		}
		if g == ssp.ClsM || g == ssp.ClsE {
			if d, ok := c3.LLCData(a); ok {
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
	return m.dram.Peek(a), nil
}

// lines returns the sorted line addresses of interest (the test's
// variables), cached at Build and shared read-only across clones.
func (m *Model) lines() []mem.LineAddr { return m.addrLines }
