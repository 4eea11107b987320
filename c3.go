// Package c3 is a from-scratch Go reproduction of "C3: CXL Coherence
// Controllers for Heterogeneous Architectures" (HPCA 2026): a
// protocol-level discrete-event simulator for heterogeneous multi-host
// CXL systems built around the C3 compound coherence controller.
//
// The package offers four entry points:
//
//   - Simulation: NewSystem builds a multi-cluster machine (MESI, MOESI,
//     MESIF or RCC host protocols; TSO/weak/SC cores; CXL.mem or
//     hierarchical-MESI global protocol) on which workloads (RunWorkload)
//     or custom instruction sources (System.Raw + AttachSource) execute.
//
//   - Protocol synthesis: GenerateTable merges two SSP protocol specs
//     into the C3 compound translation table (the paper's Table II) and
//     reports its forbidden/reachable compound states.
//
//   - Correctness: RunLitmus executes randomized litmus campaigns
//     (Table IV) and Verify exhaustively model-checks small
//     configurations (the paper's Murphi methodology).
//
//   - Experiments: Fig9, Fig10, Fig11 and TableIV regenerate the
//     paper's evaluation artifacts; cmd/c3bench and bench_test.go drive
//     them.
//
// Everything is implemented in pure Go with the standard library only;
// the substrate packages live under internal/.
package c3

import (
	"fmt"

	"c3/internal/cpu"
	"c3/internal/gen"
	"c3/internal/ssp"
	"c3/internal/stats"
	"c3/internal/system"
	"c3/internal/workload"
)

// MCM names a memory consistency model: "arm" (weak), "tso", "sc".
type MCM = cpu.MCM

// Exported MCM values.
const (
	ARM = cpu.WMO
	TSO = cpu.TSO
	SC  = cpu.SC
)

// ParseMCM parses an MCM name ("arm"/"weak"/"wmo", "tso"/"x86", "sc");
// unknown names are an error, so command-line tools can reject typos
// instead of silently defaulting.
func ParseMCM(s string) (MCM, error) { return cpu.ParseMCM(s) }

// Cluster describes one compute node of the machine.
type Cluster struct {
	// Protocol is the host coherence protocol: "mesi", "moesi",
	// "mesif", or "rcc".
	Protocol string
	// MCM is the cluster's memory consistency model.
	MCM MCM
	// Cores is the number of cores (each with a private 128 KiB cache).
	Cores int
}

// Config describes a machine in the paper's topology.
type Config struct {
	// Global selects the inter-cluster protocol: "cxl" (default) or
	// "hmesi" (the MESI-MESI-MESI baseline).
	Global   string
	Clusters []Cluster
	// Seed randomizes fabric jitter (runs are reproducible per seed).
	Seed int64
}

// System is an assembled machine.
type System struct {
	sys *system.System
}

// NewSystem builds a machine.
func NewSystem(cfg Config) (*System, error) {
	sc := system.Config{Global: cfg.Global, Seed: cfg.Seed}
	for _, cl := range cfg.Clusters {
		sc.Clusters = append(sc.Clusters, system.ClusterConfig{
			Protocol: cl.Protocol, MCM: cl.MCM, Cores: cl.Cores,
		})
	}
	s, err := system.New(sc)
	if err != nil {
		return nil, err
	}
	return &System{sys: s}, nil
}

// Proto reports the protocol combination in the paper's notation
// ("MESI-CXL-MOESI").
func (s *System) Proto() string { return s.sys.Proto() }

// Raw exposes the underlying system for advanced use (custom sources,
// direct stats access).
func (s *System) Raw() *system.System { return s.sys }

// RunWorkload executes one of the 33 paper kernels on a fresh two-cluster
// system and returns its datapoint.
func RunWorkload(name string, cfg WorkloadConfig) (stats.Run, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return stats.Run{}, fmt.Errorf("c3: unknown workload %q (see Workloads())", name)
	}
	return workload.Run(workload.RunConfig{
		Spec:            spec,
		Global:          cfg.Global,
		Locals:          cfg.Locals,
		MCMs:            cfg.MCMs,
		CoresPerCluster: cfg.CoresPerCluster,
		OpsScale:        cfg.OpsScale,
		Seed:            cfg.Seed,
		Hybrid:          cfg.Hybrid,
	})
}

// WorkloadConfig parameterizes RunWorkload.
type WorkloadConfig struct {
	Global          string    // "cxl" or "hmesi"
	Locals          [2]string // per-cluster protocols
	MCMs            [2]MCM
	CoresPerCluster int     // default 4
	OpsScale        float64 // multiplies the kernel's op budget
	Seed            int64
	// Hybrid homes per-core private data in cluster-local memory
	// (Sec. IV-D4); only shared data lives in the CXL pool.
	Hybrid bool
}

// Workloads lists the 33 kernel names (Splash-4, PARSEC, Phoenix).
func Workloads() []string { return workload.Names() }

// Table is a generated C3 compound translation table.
type Table = gen.Table

// GenerateTable merges the named local protocol ("mesi", "moesi",
// "mesif", "rcc") with the named global protocol ("cxl", "hmesi") into a
// C3 compound table, as the paper's generator tool does from SSP specs.
func GenerateTable(local, global string) (*Table, error) {
	ls, ok := ssp.Local(local)
	if !ok {
		return nil, fmt.Errorf("c3: unknown local protocol %q", local)
	}
	gs, ok := ssp.Global(global)
	if !ok {
		return nil, fmt.Errorf("c3: unknown global protocol %q", global)
	}
	return gen.Generate(ls, gs)
}

// LocalProtocols and GlobalProtocols list the embedded SSP specs.
func LocalProtocols() []string { return ssp.LocalNames() }

// GlobalProtocols lists the embedded global protocol specs.
func GlobalProtocols() []string { return ssp.GlobalNames() }
