package verif

import (
	"fmt"
	"sort"

	"c3/internal/cache"
	"c3/internal/core"
	"c3/internal/cpu"
	"c3/internal/gen"
	"c3/internal/litmus"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/protocol/cxl"
	"c3/internal/protocol/hmesi"
	"c3/internal/protocol/hostproto"
	"c3/internal/sim"
	"c3/internal/ssp"
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

// Model is one instantiated system plus the handles the explorer needs.
type Model struct {
	cfg    ModelConfig
	K      *sim.Kernel
	Fabric *ChoiceFabric

	cores []*cpu.Core
	srcs  []*cpu.SliceSource
	l1s   []*hostL1 // per thread
	c3s   []*core.C3
	dram  *mem.DRAM
	// one of:
	dcoh *cxl.DCOH
	hdir *hmesi.Dir

	// addrLines caches the sorted line addresses of the test's variables.
	// Computed once at Build and shared (read-only) by every clone: the
	// invariant checks walk it for each expanded state.
	addrLines []mem.LineAddr

	// released makes Release idempotent and keeps the modelsLive pool
	// accounting exact even if a model reaches two release paths.
	released bool
}

type hostL1 struct {
	l1      *hostproto.L1
	cache   *cache.Cache
	cluster int
}

// Build instantiates a fresh model (deterministic).
func Build(cfg ModelConfig) (*Model, error) {
	var tables [2]*gen.Table
	for ci := range tables {
		t, err := gen.Shared(cfg.Locals[ci], cfg.Global)
		if err != nil {
			return nil, fmt.Errorf("verif: cluster %d: %w", ci, err)
		}
		tables[ci] = t
	}
	m := &Model{cfg: cfg, K: &sim.Kernel{}}

	const dirID = msg.NodeID(1)
	crossNode := func(id msg.NodeID) bool { return id == dirID || id == 2 || id == 3 }
	m.Fabric = NewChoiceFabric(func(mm *msg.Msg) bool {
		// The CXL fabric reorders requests and snoops between C3s and
		// the directory; responses and intra-cluster links stay FIFO.
		return mm.VNet != msg.VRsp && crossNode(mm.Src) && crossNode(mm.Dst)
	})
	m.Fabric.CrossFabric = func(mm *msg.Msg) bool {
		return crossNode(mm.Src) && crossNode(mm.Dst)
	}
	m.dram = mem.NewDRAM(m.K, mem.DRAMConfig{AccessLatency: 1, BytesPerCycle: 64})

	if tables[0].Global.Params.ConflictHandshake {
		d := newDCOH(dirID, m)
		m.dcoh = d
	} else {
		d := newHDir(dirID, m)
		m.hdir = d
	}

	// Node ids: 1 dir, 2..3 the two C3s, 4.. the L1s.
	next := msg.NodeID(4)
	perCluster := [2]int{}
	for i := range cfg.Test.Threads {
		perCluster[i%2]++
	}
	for ci, table := range tables {
		// Small structures keep replay cheap; litmus footprints are a
		// couple of lines. TinyLLC shrinks further to force Fig. 7
		// evictions into the explored space.
		llcSize := 8 * 1024
		if cfg.TinyLLC {
			llcSize = 2 * mem.LineBytes * 2 // 2 sets x 2 ways
		}
		c3 := core.New(core.Config{
			ID: msg.NodeID(2 + ci), GlobalDir: dirID, Kernel: m.K,
			LocalNet: m.Fabric, GlobalNet: m.Fabric, Table: table,
			LLCSize: llcSize, LLCWays: 2, Lat: 1,
		})
		m.Fabric.Register(msg.NodeID(2+ci), c3)
		m.c3s = append(m.c3s, c3)
	}
	// Threads round-robin across clusters, one L1 + core each.
	for ti, th := range cfg.Test.Threads {
		ci := ti % 2
		l1 := newL1For(cfg.Locals[ci], next, msg.NodeID(2+ci), m)
		m.Fabric.Register(next, l1)
		next++
		eff := th
		switch cfg.Sync {
		case litmus.SyncFull:
			eff = litmus.Refine(th, cfg.MCMs[ci])
		case litmus.SyncNone:
			eff = litmus.Strip(th)
		}
		src := cpu.NewSliceSource(toProgram(cfg.Test, eff))
		ccfg := cpu.DefaultConfig(cfg.MCMs[ci])
		c := cpu.New(ti, m.K, ccfg, l1, src, nil)
		m.cores = append(m.cores, c)
		m.srcs = append(m.srcs, src)
		m.l1s = append(m.l1s, &hostL1{l1: l1, cache: l1.Cache(), cluster: ci})
	}

	for _, v := range cfg.Test.Vars {
		m.addrLines = append(m.addrLines, varAddrOf(cfg.Test, v).Line())
	}
	sort.Slice(m.addrLines, func(i, j int) bool { return m.addrLines[i] < m.addrLines[j] })
	modelsLive.Add(1)
	return m, nil
}

// Start launches cores and quiesces internal events.
func (m *Model) Start() {
	for _, c := range m.cores {
		c.Start()
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
	for _, c := range m.cores {
		if !c.Finished() {
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
	for i, src := range m.srcs {
		for reg, val := range src.Regs {
			o[litmus.Key(i, reg)] = val
		}
	}
	for _, v := range m.cfg.Test.Vars {
		addr := varAddrOf(m.cfg.Test, v)
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
	for _, l := range m.l1s {
		if e := l.cache.ProbeRO(a); e != nil {
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

func toProgram(t litmus.Test, th litmus.Thread) []cpu.Instr {
	prog := make([]cpu.Instr, 0, len(th))
	for _, op := range th {
		in := cpu.Instr{Kind: op.Kind, Val: op.Val, Reg: op.Reg, Acq: op.Acq, Rel: op.Rel}
		if op.Kind.IsMem() {
			in.Addr = varAddrOf(t, op.V)
		}
		prog = append(prog, in)
	}
	return prog
}

func varAddrOf(t litmus.Test, v litmus.Var) mem.Addr {
	for i, x := range t.Vars {
		if x == v {
			return mem.Addr(0x40000 + i*mem.LineBytes)
		}
	}
	panic("verif: unknown var")
}

// lines returns the sorted line addresses of interest (the test's
// variables), cached at Build and shared read-only across clones.
func (m *Model) lines() []mem.LineAddr { return m.addrLines }
