package system

import (
	"fmt"
	"testing"

	"c3/internal/cpu"
	"c3/internal/mem"
)

const evLimit = 50_000_000

func twoClusters(p1, p2, global string, cores int, seed int64) Config {
	return Config{
		Global: global,
		Seed:   seed,
		Clusters: []ClusterConfig{
			{Protocol: p1, MCM: cpu.WMO, Cores: cores},
			{Protocol: p2, MCM: cpu.WMO, Cores: cores},
		},
	}
}

func mustRun(t *testing.T, s *System) {
	t.Helper()
	if !s.Run(evLimit) {
		t.Fatalf("%s: system did not finish (deadlock?)", s.Proto())
	}
}

func addr(i int) mem.Addr { return mem.Addr(0x10000 + i*mem.LineBytes) }

func TestSingleCoreStoreLoad(t *testing.T) {
	s, err := New(Config{Global: "cxl",
		Clusters: []ClusterConfig{{Protocol: "mesi", MCM: cpu.TSO, Cores: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	src := cpu.NewSliceSource([]cpu.Instr{
		{Kind: cpu.Store, Addr: addr(0), Val: 123},
		{Kind: cpu.Load, Addr: addr(0), Reg: 1},
		{Kind: cpu.Load, Addr: addr(1), Reg: 2}, // cold line reads zero
	})
	s.AttachSource(0, 0, src)
	mustRun(t, s)
	if src.Regs[1].Val != 123 || src.Regs[2].Val != 0 {
		t.Fatalf("regs = %+v, want r1=123 r2=0", src.Regs)
	}
}

func TestCrossClusterVisibility(t *testing.T) {
	// Core in cluster 0 writes; core in cluster 1 spins until it sees
	// the value (exercises GetM/BISnp flows end to end).
	for _, global := range []string{"cxl", "hmesi"} {
		t.Run(global, func(t *testing.T) {
			s, err := New(twoClusters("mesi", "mesi", global, 1, 42))
			if err != nil {
				t.Fatal(err)
			}
			w := cpu.NewSliceSource([]cpu.Instr{
				{Kind: cpu.Store, Addr: addr(0), Val: 7},
			})
			var got uint64
			spinning := true
			r := &cpu.FuncSource{
				NextFn: func() (cpu.Instr, bool) {
					if !spinning {
						return cpu.Instr{}, false
					}
					return cpu.Instr{Kind: cpu.Load, Addr: addr(0), Reg: 1, CtrlDep: true}, true
				},
				CompleteFn: func(in cpu.Instr, v uint64) {
					if in.Kind == cpu.Load && v == 7 {
						got = v
						spinning = false
					}
				},
			}
			s.AttachSource(0, 0, w)
			s.AttachSource(1, 0, r)
			mustRun(t, s)
			if got != 7 {
				t.Fatalf("reader never observed the write; got %d", got)
			}
		})
	}
}

func TestSharedCounterRMW(t *testing.T) {
	// Atomic increments from every core in both clusters must sum
	// exactly — the fundamental SWMR/atomicity test.
	combos := [][2]string{{"mesi", "mesi"}, {"mesi", "moesi"}, {"mesi", "mesif"}, {"moesi", "mesif"}}
	for _, global := range []string{"cxl", "hmesi"} {
		for _, c := range combos {
			name := fmt.Sprintf("%s-%s-%s", c[0], global, c[1])
			t.Run(name, func(t *testing.T) {
				const cores, incs = 2, 20
				s, err := New(twoClusters(c[0], c[1], global, cores, 7))
				if err != nil {
					t.Fatal(err)
				}
				var srcs []*cpu.SliceSource
				for cl := 0; cl < 2; cl++ {
					for i := 0; i < cores; i++ {
						var prog []cpu.Instr
						for n := 0; n < incs; n++ {
							prog = append(prog, cpu.Instr{Kind: cpu.RMWAdd, Addr: addr(0), Val: 1, Reg: n})
						}
						src := cpu.NewSliceSource(prog)
						srcs = append(srcs, src)
						s.AttachSource(cl, i, src)
					}
				}
				mustRun(t, s)
				// Read back the final value through a fresh check of memory:
				// every RMW returned a distinct old value 0..N-1.
				seen := map[uint64]bool{}
				for _, src := range srcs {
					src.EachReg(func(_ int, v uint64) {
						if seen[v] {
							t.Fatalf("duplicate RMW ticket %d — atomicity violated", v)
						}
						seen[v] = true
					})
				}
				if len(seen) != 2*cores*incs {
					t.Fatalf("saw %d distinct tickets, want %d", len(seen), 2*cores*incs)
				}
			})
		}
	}
}

func TestDisjointLinesIntegrity(t *testing.T) {
	// Each core writes a private region through the shared memory, then
	// reads it back; all values must round-trip.
	for _, global := range []string{"cxl", "hmesi"} {
		t.Run(global, func(t *testing.T) {
			const cores, lines = 2, 24
			s, err := New(twoClusters("mesi", "moesi", global, cores, 3))
			if err != nil {
				t.Fatal(err)
			}
			var srcs []*cpu.SliceSource
			id := 0
			for cl := 0; cl < 2; cl++ {
				for i := 0; i < cores; i++ {
					base := 0x100 * (id + 1)
					var prog []cpu.Instr
					for n := 0; n < lines; n++ {
						prog = append(prog, cpu.Instr{Kind: cpu.Store, Addr: addr(base + n), Val: uint64(id*1000 + n)})
					}
					prog = append(prog, cpu.Instr{Kind: cpu.Fence})
					for n := 0; n < lines; n++ {
						prog = append(prog, cpu.Instr{Kind: cpu.Load, Addr: addr(base + n), Reg: n})
					}
					src := cpu.NewSliceSource(prog)
					srcs = append(srcs, src)
					s.AttachSource(cl, i, src)
					id++
				}
			}
			mustRun(t, s)
			for id, src := range srcs {
				for n := 0; n < lines; n++ {
					if src.Regs[n].Val != uint64(id*1000+n) {
						t.Fatalf("core %d line %d read %d, want %d", id, n, src.Regs[n].Val, id*1000+n)
					}
				}
			}
		})
	}
}

func TestReadSharingAcrossClusters(t *testing.T) {
	// One writer publishes; readers in both clusters (one slot left for
	// the writer) spin until each observes the value — read sharing via
	// BISnpData and peer forwards.
	s, err := New(twoClusters("mesi", "mesif", "cxl", 2, 11))
	if err != nil {
		t.Fatal(err)
	}
	w := cpu.NewSliceSource([]cpu.Instr{
		{Kind: cpu.Store, Addr: addr(0), Val: 1},
	})
	s.AttachSource(0, 0, w)
	okCount := 0
	mkReader := func() *cpu.FuncSource {
		done := false
		return &cpu.FuncSource{
			NextFn: func() (cpu.Instr, bool) {
				if done {
					return cpu.Instr{}, false
				}
				return cpu.Instr{Kind: cpu.Load, Addr: addr(0), Reg: 0, CtrlDep: true}, true
			},
			CompleteFn: func(in cpu.Instr, v uint64) {
				if in.Kind == cpu.Load && v == 1 && !done {
					done = true
					okCount++
				}
			},
		}
	}
	s.AttachSource(0, 1, mkReader())
	s.AttachSource(1, 0, mkReader())
	s.AttachSource(1, 1, mkReader())
	mustRun(t, s)
	if okCount != 3 {
		t.Fatalf("%d readers observed the write, want 3", okCount)
	}
}

func TestLLCEvictionPressure(t *testing.T) {
	// A tiny CXL cache forces Fig. 7 cross-domain evictions constantly;
	// data must still round-trip.
	for _, global := range []string{"cxl", "hmesi"} {
		t.Run(global, func(t *testing.T) {
			cfg := twoClusters("mesi", "mesi", global, 1, 5)
			cfg.LLCSize = 2 * 1024 // 32 lines
			cfg.LLCWays = 2
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const lines = 200
			var prog []cpu.Instr
			for n := 0; n < lines; n++ {
				prog = append(prog, cpu.Instr{Kind: cpu.Store, Addr: addr(n), Val: uint64(n + 1)})
			}
			prog = append(prog, cpu.Instr{Kind: cpu.Fence})
			for n := 0; n < lines; n++ {
				prog = append(prog, cpu.Instr{Kind: cpu.Load, Addr: addr(n), Reg: n})
			}
			src := cpu.NewSliceSource(prog)
			s.AttachSource(0, 0, src)
			mustRun(t, s)
			for n := 0; n < lines; n++ {
				if src.Regs[n].Val != uint64(n+1) {
					t.Fatalf("line %d read %d, want %d", n, src.Regs[n].Val, n+1)
				}
			}
			if s.Clusters[0].C3.Stats.Evictions == 0 {
				t.Fatal("expected CXL-cache evictions under pressure")
			}
		})
	}
}

func TestRCCProducerConsumer(t *testing.T) {
	// RCC producer writes data then release-stores a flag; MESI consumer
	// spins on the flag, then must see the data (Fig. 8 flow).
	s, err := New(Config{Global: "cxl", Seed: 9, Clusters: []ClusterConfig{
		{Protocol: "rcc", MCM: cpu.WMO, Cores: 1},
		{Protocol: "mesi", MCM: cpu.TSO, Cores: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	prod := cpu.NewSliceSource([]cpu.Instr{
		{Kind: cpu.Store, Addr: addr(0), Val: 41},
		{Kind: cpu.Store, Addr: addr(1), Val: 42},
		{Kind: cpu.Store, Addr: addr(2), Val: 1, Rel: true}, // release flag
	})
	var d0, d1 uint64
	stage := 0
	cons := &cpu.FuncSource{
		NextFn: func() (cpu.Instr, bool) {
			switch stage {
			case 0:
				return cpu.Instr{Kind: cpu.Load, Addr: addr(2), Reg: 0, Acq: true, CtrlDep: true}, true
			case 1:
				return cpu.Instr{Kind: cpu.Load, Addr: addr(0), Reg: 1}, true
			case 2:
				return cpu.Instr{Kind: cpu.Load, Addr: addr(1), Reg: 2}, true
			}
			return cpu.Instr{}, false
		},
		CompleteFn: func(in cpu.Instr, v uint64) {
			switch {
			case stage == 0 && in.Reg == 0 && v == 1:
				stage = 1
			case stage == 1 && in.Reg == 1:
				d0 = v
				stage = 2
			case stage == 2 && in.Reg == 2:
				d1 = v
				stage = 3
			}
		},
	}
	s.AttachSource(0, 0, prod)
	s.AttachSource(1, 0, cons)
	mustRun(t, s)
	if d0 != 41 || d1 != 42 {
		t.Fatalf("consumer read %d/%d, want 41/42 (release visibility broken)", d0, d1)
	}
}

func TestRCCAtomics(t *testing.T) {
	// RCC atomics execute at the C3 CXL cache; tickets must be unique
	// across an RCC and a MESI cluster.
	s, err := New(Config{Global: "cxl", Seed: 13, Clusters: []ClusterConfig{
		{Protocol: "rcc", MCM: cpu.WMO, Cores: 2},
		{Protocol: "mesi", MCM: cpu.WMO, Cores: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const incs = 10
	var srcs []*cpu.SliceSource
	for cl := 0; cl < 2; cl++ {
		for i := 0; i < 2; i++ {
			var prog []cpu.Instr
			for n := 0; n < incs; n++ {
				prog = append(prog, cpu.Instr{Kind: cpu.RMWAdd, Addr: addr(0), Val: 1, Reg: n})
			}
			src := cpu.NewSliceSource(prog)
			srcs = append(srcs, src)
			s.AttachSource(cl, i, src)
		}
	}
	mustRun(t, s)
	seen := map[uint64]bool{}
	for _, src := range srcs {
		src.EachReg(func(_ int, v uint64) {
			if seen[v] {
				t.Fatalf("duplicate ticket %d", v)
			}
			seen[v] = true
		})
	}
	if len(seen) != 4*incs {
		t.Fatalf("got %d tickets, want %d", len(seen), 4*incs)
	}
}

func TestProtoString(t *testing.T) {
	s, err := New(twoClusters("mesi", "moesi", "cxl", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Proto() != "MESI-CXL-MOESI" {
		t.Fatalf("Proto() = %q", s.Proto())
	}
	s2, _ := New(twoClusters("mesi", "mesi", "hmesi", 1, 1))
	if s2.Proto() != "MESI-MESI-MESI" {
		t.Fatalf("Proto() = %q", s2.Proto())
	}
}

func TestBadConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := New(Config{Global: "bogus", Clusters: []ClusterConfig{{Protocol: "mesi", Cores: 1}}}); err == nil {
		t.Error("bad global should fail")
	}
	if _, err := New(Config{Global: "cxl", Clusters: []ClusterConfig{{Protocol: "bogus", Cores: 1}}}); err == nil {
		t.Error("bad local should fail")
	}
}

func TestHybridLocalLinesBypassGlobalProtocol(t *testing.T) {
	// With a local range configured, lines in it must produce zero
	// global-directory traffic and still round-trip data correctly.
	boundary := mem.Addr(0x100000)
	cfg := Config{
		Global: "cxl",
		Seed:   2,
		Clusters: []ClusterConfig{
			{Protocol: "mesi", MCM: cpu.WMO, Cores: 1,
				LocalRange: func(a mem.LineAddr) bool { return a.Addr() < boundary }},
			{Protocol: "mesi", MCM: cpu.WMO, Cores: 1},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prog []cpu.Instr
	for i := 0; i < 16; i++ {
		prog = append(prog, cpu.Instr{Kind: cpu.Store, Addr: mem.Addr(0x8000 + i*64), Val: uint64(i + 1)})
	}
	prog = append(prog, cpu.Instr{Kind: cpu.Fence})
	for i := 0; i < 16; i++ {
		prog = append(prog, cpu.Instr{Kind: cpu.Load, Addr: mem.Addr(0x8000 + i*64), Reg: i})
	}
	src := cpu.NewSliceSource(prog)
	s.AttachSource(0, 0, src)
	s.AttachSource(1, 0, cpu.NewSliceSource(nil))
	mustRun(t, s)
	for i := 0; i < 16; i++ {
		if src.Regs[i].Val != uint64(i+1) {
			t.Fatalf("local line %d read %d", i, src.Regs[i].Val)
		}
	}
	c3 := s.Clusters[0].C3
	if c3.Stats.Delegations != 0 {
		t.Fatalf("local lines delegated %d global flows", c3.Stats.Delegations)
	}
	if c3.Stats.LocalMemReads == 0 {
		t.Fatal("local memory never read")
	}
	if s.DCOH.Stats.Reads != 0 {
		t.Fatalf("DCOH saw %d reads for local-only traffic", s.DCOH.Stats.Reads)
	}
	if s.LocalMems[0] == nil || s.LocalMems[1] != nil {
		t.Fatal("local memory allocation wrong")
	}
}

func TestHybridEvictionWritesLocalMemory(t *testing.T) {
	boundary := mem.Addr(0x100000)
	cfg := Config{
		Global: "cxl", Seed: 3,
		LLCSize: 2 * 1024, LLCWays: 2, // tiny: force evictions
		Clusters: []ClusterConfig{
			{Protocol: "mesi", MCM: cpu.WMO, Cores: 1,
				LocalRange: func(a mem.LineAddr) bool { return a.Addr() < boundary }},
			{Protocol: "mesi", MCM: cpu.WMO, Cores: 1},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lines = 120
	var prog []cpu.Instr
	for i := 0; i < lines; i++ {
		prog = append(prog, cpu.Instr{Kind: cpu.Store, Addr: mem.Addr(0x8000 + i*64), Val: uint64(i + 1)})
	}
	prog = append(prog, cpu.Instr{Kind: cpu.Fence})
	for i := 0; i < lines; i++ {
		prog = append(prog, cpu.Instr{Kind: cpu.Load, Addr: mem.Addr(0x8000 + i*64), Reg: i})
	}
	src := cpu.NewSliceSource(prog)
	s.AttachSource(0, 0, src)
	s.AttachSource(1, 0, cpu.NewSliceSource(nil))
	mustRun(t, s)
	for i := 0; i < lines; i++ {
		if src.Regs[i].Val != uint64(i+1) {
			t.Fatalf("line %d read %d after eviction round trip", i, src.Regs[i].Val)
		}
	}
	c3 := s.Clusters[0].C3
	if c3.Stats.LocalMemWrites == 0 {
		t.Fatal("no local writebacks despite eviction pressure")
	}
	if s.DCOH.Stats.Writes != 0 {
		t.Fatal("local dirty lines written to the CXL pool")
	}
}

func TestThreeClusterCoherence(t *testing.T) {
	// CXL 3.0 multi-headed devices serve more than two hosts; three
	// heterogeneous clusters must still serialize a shared counter.
	s, err := New(Config{
		Global: "cxl", Seed: 21,
		Clusters: []ClusterConfig{
			{Protocol: "mesi", MCM: cpu.TSO, Cores: 1},
			{Protocol: "moesi", MCM: cpu.WMO, Cores: 1},
			{Protocol: "mesif", MCM: cpu.WMO, Cores: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const incs = 15
	var srcs []*cpu.SliceSource
	for cl := 0; cl < 3; cl++ {
		var prog []cpu.Instr
		for n := 0; n < incs; n++ {
			prog = append(prog, cpu.Instr{Kind: cpu.RMWAdd, Addr: addr(0), Val: 1, Reg: n})
		}
		src := cpu.NewSliceSource(prog)
		srcs = append(srcs, src)
		s.AttachSource(cl, 0, src)
	}
	mustRun(t, s)
	seen := map[uint64]bool{}
	for _, src := range srcs {
		src.EachReg(func(_ int, v uint64) {
			if seen[v] {
				t.Fatalf("duplicate ticket %d across three hosts", v)
			}
			seen[v] = true
		})
	}
	if len(seen) != 3*incs {
		t.Fatalf("tickets %d, want %d", len(seen), 3*incs)
	}
}

func TestFourClusterIRIW(t *testing.T) {
	// True multi-host IRIW: two writer hosts, two reader hosts, each on
	// its own cluster. With acquire loads the readers must agree on the
	// write order (multi-copy atomicity across four CXL hosts).
	for seed := int64(0); seed < 25; seed++ {
		s, err := New(Config{
			Global: "cxl", Seed: seed,
			Clusters: []ClusterConfig{
				{Protocol: "mesi", MCM: cpu.WMO, Cores: 1},
				{Protocol: "moesi", MCM: cpu.WMO, Cores: 1},
				{Protocol: "mesi", MCM: cpu.WMO, Cores: 1},
				{Protocol: "mesif", MCM: cpu.WMO, Cores: 1},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		x, y := addr(0), addr(1)
		s.AttachSource(0, 0, cpu.NewSliceSource([]cpu.Instr{{Kind: cpu.Store, Addr: x, Val: 1}}))
		s.AttachSource(1, 0, cpu.NewSliceSource([]cpu.Instr{{Kind: cpu.Store, Addr: y, Val: 1}}))
		r1 := cpu.NewSliceSource([]cpu.Instr{
			{Kind: cpu.Load, Addr: x, Reg: 0, Acq: true},
			{Kind: cpu.Load, Addr: y, Reg: 1},
		})
		r2 := cpu.NewSliceSource([]cpu.Instr{
			{Kind: cpu.Load, Addr: y, Reg: 0, Acq: true},
			{Kind: cpu.Load, Addr: x, Reg: 1},
		})
		s.AttachSource(2, 0, r1)
		s.AttachSource(3, 0, r2)
		mustRun(t, s)
		if r1.Regs[0].Val == 1 && r1.Regs[1].Val == 0 && r2.Regs[0].Val == 1 && r2.Regs[1].Val == 0 {
			t.Fatalf("seed %d: IRIW forbidden outcome across four hosts", seed)
		}
	}
}
