package verif

import (
	"testing"

	"c3/internal/cpu"
	"c3/internal/faults"
	"c3/internal/mem"
	"c3/internal/system"
)

// TestCheckHostIsolation drives a real crash through a two-cluster
// system and checks the post-crash isolation invariant
// (System.DeadHostIsolationViolations, which the litmus runner checks
// after every crashed iteration): no directory or snoop-filter entry
// names a dead host, before the crash or after a completed reclamation.
func TestCheckHostIsolation(t *testing.T) {
	plan := &faults.Plan{}
	plan.CrashHost(1, 2000)
	s, err := system.New(system.Config{
		Global: "cxl",
		Faults: plan,
		Clusters: []system.ClusterConfig{
			{Protocol: "mesi", MCM: cpu.WMO, Cores: 1},
			{Protocol: "mesi", MCM: cpu.WMO, Cores: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.DeadHostIsolationViolations(); len(v) > 0 {
		t.Fatalf("pre-crash system violates isolation: %v", v)
	}
	line := mem.Addr(0x20000)
	// The victim takes the line Modified and spins on it.
	stored := false
	s.AttachSource(1, 0, &cpu.FuncSource{
		NextFn: func() (cpu.Instr, bool) {
			if !stored {
				stored = true
				return cpu.Instr{Kind: cpu.Store, Addr: line, Val: 9}, true
			}
			return cpu.Instr{Kind: cpu.Load, Addr: line, Reg: 1, CtrlDep: true}, true
		},
	})
	// The survivor spins until the declaration lands.
	spinning := true
	s.AttachSource(0, 0, &cpu.FuncSource{
		NextFn: func() (cpu.Instr, bool) {
			if !spinning {
				return cpu.Instr{}, false
			}
			return cpu.Instr{Kind: cpu.Load, Addr: line + mem.LineBytes, Reg: 1, CtrlDep: true}, true
		},
		CompleteFn: func(cpu.Instr, uint64) {
			if s.Recovery.PeersDeclaredDead > 0 {
				spinning = false
			}
		},
	})
	if !s.Run(50_000_000) {
		t.Fatal("system wedged")
	}
	if s.Recovery.PeersDeclaredDead != 1 {
		t.Fatalf("declaration not processed: %+v", s.Recovery)
	}
	if v := s.DeadHostIsolationViolations(); len(v) > 0 {
		t.Fatalf("post-reclamation isolation violated: %v", v)
	}
}
