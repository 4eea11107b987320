// Package perf is the self-contained micro-benchmark harness behind the
// checked-in perf-trajectory baseline (BENCH_c3.json): it re-runs the
// repo's load-bearing hot paths — the event kernel, the checker's
// snapshot expansion, the network send path, the core/L1 hit path,
// machine set-up, and the soak inner loop — from a normal binary
// (c3bench -exp micro) rather than `go test -bench`, measures wall time
// and allocation cost per op, and compares the result against a
// committed baseline so every PR sees its perf trajectory.
//
// The harness deliberately avoids the testing package's auto-scaling:
// each benchmark runs a fixed op count chosen to finish in well under a
// second, so a full 3-run sweep stays cheap in CI and op counts never
// drift between baseline and candidate.
package perf

import (
	"fmt"
	"runtime"
	"time"

	"c3/internal/cpu"
	"c3/internal/faults"
	"c3/internal/litmus"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/protocol/hostproto"
	"c3/internal/sim"
	"c3/internal/system"
	"c3/internal/verif"
)

// Stat is one benchmark's measurement, in `go test -bench` units.
type Stat struct {
	NsOp     int64  `json:"ns_per_op"`
	AllocsOp uint64 `json:"allocs_per_op"`
	BytesOp  uint64 `json:"bytes_per_op"`
	// Ops is the op count the run amortized over (fixed per benchmark).
	Ops int `json:"ops"`
}

// Benchmark is one entry of the micro suite.
type Benchmark struct {
	// Name keys the baseline file ("kernel", "checker-expand", ...).
	Name string
	// Ops is the per-run op count; ns/op and allocs/op divide by it.
	Ops int
	// ZeroAlloc pins the steady state at 0 allocs/op (the CI alloc gates
	// for the kernel, the fault-free network send path and the core/L1
	// hit path).
	ZeroAlloc bool
	// Setup builds run state once per measurement (excluded from the
	// timed region) and returns the op loop.
	Setup func(ops int) (run func())
}

// Benchmarks returns the micro suite in baseline order.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{
			// The event-kernel schedule+fire round trip (mirrors
			// internal/sim BenchmarkKernelSchedule): the inner loop under
			// every simulated cycle. Steady state is allocation-free.
			Name: "kernel", Ops: 2_000_000, ZeroAlloc: true,
			Setup: func(ops int) func() {
				k := &sim.Kernel{}
				fn := func() {}
				for i := 0; i < 64; i++ {
					k.Schedule(sim.Time(i), fn)
				}
				k.RunLimit(0)
				return func() {
					for i := 0; i < ops; i++ {
						k.Schedule(k.Now()+1, fn)
						k.Step()
					}
				}
			},
		},
		{
			// The perfect-fabric send+deliver path (mirrors
			// internal/network BenchmarkNetworkSend): one cross-cluster
			// message end to end, allocation-free with faults disabled.
			Name: "network-send", Ops: 500_000, ZeroAlloc: true,
			Setup: func(ops int) func() {
				k := &sim.Kernel{}
				n := network.New(k, 1)
				n.Register(0, nopPort{})
				n.Register(1, nopPort{})
				n.Connect(0, 1, network.CrossCluster())
				m := &msg.Msg{Type: msg.GetS, Src: 0, Dst: 1, VNet: msg.VReq}
				n.Send(m)
				k.Run(nil)
				return func() {
					for i := 0; i < ops; i++ {
						n.Send(m)
						k.Run(nil)
					}
				}
			},
		},
		{
			// The cpu issue/retire layer over a host L1: one core
			// streaming loads and stores over private lines it already
			// owns, so every op — one retired instruction — is fetch,
			// issue, L1 hit, reply and retire, with store-buffer drains
			// and pumps through the kernel. Steady state is
			// allocation-free.
			Name: "core-l1-hit", Ops: 500_000, ZeroAlloc: true,
			Setup: func(ops int) func() {
				run := coreL1Hit()
				return func() { run(ops) }
			},
		},
		{
			// One exhaustive exploration of the CXL MP shape by snapshot
			// cloning (mirrors internal/verif BenchmarkCheckerExpand). POR
			// (and with it the sleep sets) is pinned off so every enabled
			// delivery is expanded; MP admits no symmetry, so the
			// fingerprint hashes each state once. The reduced path has its
			// own micro below.
			Name: "checker-expand", Ops: 1,
			Setup: func(int) func() {
				mcfg := mpModel()
				return func() {
					if _, err := verif.Check(mcfg, verif.CheckerConfig{
						MaxStates: 20_000, Workers: 1, POROff: true,
					}); err != nil {
						panic(fmt.Sprintf("perf: checker-expand: %v", err))
					}
				}
			},
		},
		{
			// The same exploration with the reduction layer on — canonical
			// hashing, symmetry, partial-order reduction and sleep sets —
			// over the MP+3W shape, whose interchangeable writer threads
			// and independent store lines give the reductions real
			// structure.
			// Wall time pins the net win: the reduced run visits ~2k of the
			// shape's ~22k raw states despite hashing every state up to
			// |group| times.
			Name: "checker-reduced", Ops: 1,
			Setup: func(int) func() {
				mcfg := mpModel()
				tc, ok := litmus.ByName("MP+3W")
				if !ok {
					panic("perf: no MP+3W litmus test")
				}
				mcfg.Test = tc
				return func() {
					if _, err := verif.Check(mcfg, verif.CheckerConfig{MaxStates: 20_000}); err != nil {
						panic(fmt.Sprintf("perf: checker-reduced: %v", err))
					}
				}
			},
		},
		{
			// The snapshot primitive the checker's expansion multiplies
			// (mirrors internal/verif BenchmarkCloneSnapshot): COW-clone a
			// mid-protocol model, deliver one message to the copy, recycle
			// it. Clone is O(dirty), so the steady state allocates only the
			// component graph and whatever the single step touches — the
			// multi-KiB cache arrays and the DRAM store stay shared.
			Name: "clone-snapshot", Ops: 20_000,
			Setup: func(ops int) func() {
				m, err := verif.Build(mpModel())
				if err != nil {
					panic(fmt.Sprintf("perf: clone-snapshot: %v", err))
				}
				m.Start()
				// Step a few deliveries in so clones carry populated
				// caches, open transactions, and in-flight messages.
				for i := 0; i < 6; i++ {
					acts := m.Fabric.Enabled()
					if len(acts) == 0 {
						break
					}
					m.Step(acts[0])
				}
				return func() {
					for i := 0; i < ops; i++ {
						c := m.Clone()
						if acts := c.Fabric.Enabled(); len(acts) > 0 {
							c.Step(acts[0])
						}
						c.Release()
					}
				}
			},
		},
		{
			// Machine set-up (mirrors internal/system
			// BenchmarkSystemBuild): New + Release of the litmus-size
			// machine, two one-core MESI clusters under CXL with Table III
			// caches, which the litmus runner pays once per iteration.
			// Pooled all-zero cache slabs and shared compound tables keep
			// it O(state touched), not O(cache capacity).
			Name: "system-build", Ops: 2_000,
			Setup: func(ops int) func() {
				cfg := system.Config{Global: "cxl", Clusters: []system.ClusterConfig{
					{Protocol: "mesi", Cores: 1}, {Protocol: "mesi", Cores: 1},
				}}
				build := func(seed int64) {
					cfg.Seed = seed
					s, err := system.New(cfg)
					if err != nil {
						panic(fmt.Sprintf("perf: system-build: %v", err))
					}
					s.Release()
				}
				build(-1) // fill the slab pools and the shared tables
				return func() {
					for i := 0; i < ops; i++ {
						build(int64(i))
					}
				}
			},
		},
		{
			// The soak harness's inner loop: one full MP campaign
			// iteration on a faulty fabric with the hang watchdog armed —
			// the unit of work a million-run campaign multiplies.
			Name: "soak-inner-loop", Ops: 8,
			Setup: func(ops int) func() {
				tc, ok := litmus.ByName("MP")
				if !ok {
					panic("perf: no MP litmus test")
				}
				plan := faults.Plan{Rates: faults.Rates{Drop: 0.01, Dup: 0.01}}
				run := func(iters int) {
					p := plan
					res, err := litmus.Run(tc, litmus.RunnerConfig{
						Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
						MCMs:  [2]cpu.MCM{cpu.WMO, cpu.WMO},
						Iters: iters, Sync: litmus.SyncFull, BaseSeed: 1,
						Workers: 1, Faults: &p, HangWatch: true,
					})
					if err != nil {
						panic(fmt.Sprintf("perf: soak-inner-loop: %v", err))
					}
					if res.Forbidden != 0 {
						panic("perf: soak-inner-loop saw a forbidden outcome")
					}
				}
				// Fill the slab pools, as system-build does: otherwise the
				// first timed iteration may allocate a fresh multi-MiB LLC
				// slab and the micro reads in two modes.
				run(1)
				return func() { run(ops) }
			},
		},
	}
}

// nopPort swallows deliveries without bookkeeping, so receiver cost is
// not charged to the send path.
type nopPort struct{}

func (nopPort) Recv(*msg.Msg) {}

// coreL1Hit builds the core-l1-hit rig — a WMO core on a Table III
// MESI L1 whose directory grants every request in M — warms it until
// the core's 16 private lines are resident, and returns a function that
// runs the core until it retires n more instructions.
func coreL1Hit() (run func(n int)) {
	k := &sim.Kernel{}
	dir := &grantM{k: k}
	l1 := hostproto.NewL1(2, 1, k, dir, hostproto.DefaultConfig(hostproto.MESI))
	dir.l1 = l1
	var prog []cpu.Instr
	for i := 0; i < 16; i++ {
		a := mem.Addr(0x10000 + i*mem.LineBytes)
		prog = append(prog,
			cpu.Instr{Kind: cpu.Store, Addr: a, Val: uint64(i)},
			cpu.Instr{Kind: cpu.Load, Addr: a + 8, Reg: i})
	}
	c := cpu.New(0, k, cpu.DefaultConfig(cpu.WMO), l1, &loopSource{prog: prog}, nil)
	c.Start()
	run = func(n int) {
		for end := c.Retired + uint64(n); c.Retired < end; {
			k.Step()
		}
	}
	run(4 * len(prog)) // fills, then the rings and free lists reach size
	if l1.Misses != uint64(len(prog)/2) {
		panic(fmt.Sprintf("perf: core-l1-hit: %d L1 misses warming 16 lines", l1.Misses))
	}
	return run
}

// grantM is the core-l1-hit rig's directory: it answers every request
// with ownership one cycle later.
type grantM struct {
	k  *sim.Kernel
	l1 *hostproto.L1
}

func (d *grantM) Send(m *msg.Msg) {
	if m.Type != msg.GetS && m.Type != msg.GetM {
		panic(fmt.Sprintf("perf: core-l1-hit: unexpected %v", m))
	}
	d.k.After(1, func() {
		d.l1.Recv(&msg.Msg{Type: msg.DataM, Addr: m.Addr, Src: m.Dst, Dst: m.Src, Data: &mem.Data{}})
	})
}

// loopSource replays a fixed program forever.
type loopSource struct {
	prog []cpu.Instr
	pos  int
}

func (s *loopSource) Next() (cpu.Instr, bool) {
	in := s.prog[s.pos]
	s.pos = (s.pos + 1) % len(s.prog)
	return in, true
}

func (s *loopSource) Complete(cpu.Instr, uint64) {}

func mpModel() verif.ModelConfig {
	tc, ok := litmus.ByName("MP")
	if !ok {
		panic("perf: no MP litmus test")
	}
	return verif.ModelConfig{
		Test:   tc,
		Locals: [2]string{"mesi", "mesi"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:   litmus.SyncFull,
	}
}

// Measure runs b once (after its setup) and reports per-op wall time and
// allocation cost. Allocation counts come from runtime.MemStats deltas
// around the timed region; a GC is forced first so the delta reflects
// the benchmark, not a previous phase's garbage.
func Measure(b Benchmark) Stat {
	run := b.Setup(b.Ops)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Stat{
		NsOp:     elapsed.Nanoseconds() / int64(b.Ops),
		AllocsOp: (after.Mallocs - before.Mallocs) / uint64(b.Ops),
		BytesOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(b.Ops),
		Ops:      b.Ops,
	}
}

// MeasureAll runs every benchmark `runs` times (>=1) and aggregates:
// median ns/op (damping runner noise) and minimum allocs/op and bytes/op
// (allocation noise — a background GC assist, a resized map — is purely
// additive, so the minimum is the true cost). Keys are benchmark names.
func MeasureAll(runs int) map[string]Stat {
	if runs < 1 {
		runs = 1
	}
	benches := Benchmarks()
	samples := make(map[string][]Stat, len(benches))
	// Interleave runs (1st run of all benches, then 2nd, ...) so a
	// transient machine-load spike hits one sample of each benchmark
	// instead of every sample of one.
	for r := 0; r < runs; r++ {
		for _, b := range benches {
			samples[b.Name] = append(samples[b.Name], Measure(b))
		}
	}
	out := make(map[string]Stat, len(benches))
	for _, b := range benches {
		out[b.Name] = aggregate(samples[b.Name])
	}
	return out
}

// aggregate folds repeated samples: median wall time, min allocation.
func aggregate(ss []Stat) Stat {
	ns := make([]int64, len(ss))
	agg := ss[0]
	for i, s := range ss {
		ns[i] = s.NsOp
		if s.AllocsOp < agg.AllocsOp {
			agg.AllocsOp = s.AllocsOp
		}
		if s.BytesOp < agg.BytesOp {
			agg.BytesOp = s.BytesOp
		}
	}
	agg.NsOp = medianInt64(ns)
	return agg
}

// medianInt64 returns the middle sample (lower-middle for even counts).
func medianInt64(v []int64) int64 {
	s := append([]int64(nil), v...)
	for i := 1; i < len(s); i++ { // insertion sort; n is tiny
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[(len(s)-1)/2]
}
