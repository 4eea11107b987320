// Package system assembles complete simulated machines in the paper's
// topology (Fig. 1, Table III): two (or more) compute clusters, each with
// private per-core caches and a C3 controller in place of the LLC
// controller, joined through a star fabric to a CXL memory device (DCOH)
// or, for the baseline, a hierarchical-MESI global directory.
package system

import (
	"fmt"
	"strconv"

	"c3/internal/core"
	"c3/internal/cpu"
	"c3/internal/faults"
	"c3/internal/gen"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/protocol/cxl"
	"c3/internal/protocol/hmesi"
	"c3/internal/protocol/hostproto"
	"c3/internal/sim"
	"c3/internal/trace"
)

// ClusterConfig describes one compute node.
type ClusterConfig struct {
	// Protocol is the local coherence protocol: "mesi", "moesi",
	// "mesif", or "rcc".
	Protocol string
	// MCM is the memory consistency model of the cluster's cores.
	MCM cpu.MCM
	// Cores is the number of cores (each with a private cache).
	Cores int
	// L1 sizes the private caches (zero -> Table III defaults).
	L1 hostproto.Config
	// Core sizes the cores (zero -> cpu.DefaultConfig(MCM)).
	Core cpu.Config
	// LocalRange, when non-nil, enables the hybrid memory configuration
	// (Sec. IV-D4): lines it accepts are homed in this cluster's own
	// memory and never touch the global protocol.
	LocalRange func(mem.LineAddr) bool
}

// Config describes the whole machine.
type Config struct {
	// Global is the inter-cluster protocol: "cxl" or "hmesi".
	Global   string
	Clusters []ClusterConfig
	// Seed drives fabric jitter (per-run randomization for litmus).
	Seed int64
	// LLCSize/LLCWays size each cluster's CXL cache (Table III: 4 MiB).
	LLCSize, LLCWays int
	// Intra/Cross override the link configs (zero -> Table III).
	Intra, Cross network.LinkConfig
	DRAM         mem.DRAMConfig
	// Tracer, when non-nil, is attached to the fabric and every
	// controller; nil keeps the whole timed stack on its untraced path.
	Tracer *trace.Tracer
	// WatchdogAge, when non-zero (and Tracer is set), arms hang
	// detection: a line with an open transaction older than this many
	// cycles triggers a diagnostic report. Use trace.DefaultHangAge for
	// the 10x-cross-cluster-round-trip default.
	WatchdogAge sim.Time
	// Faults, when non-nil and enabled, makes the cross-cluster CXL
	// links unreliable per the plan and arms the network's
	// reliable-delivery shim (retry + dedup + poison). The intra-cluster
	// tier stays perfect.
	Faults *faults.Plan
}

// L1Port is the common face of the per-core private caches.
type L1Port interface {
	cpu.MemPort
	network.Port
	ID() msg.NodeID
}

// Cluster is one assembled compute node.
type Cluster struct {
	Cfg   ClusterConfig
	C3    *core.C3
	L1s   []L1Port
	Cores []*cpu.Core

	// crashed is set while the cluster is down (crash plan).
	crashed bool
}

// System is one assembled machine.
type System struct {
	K    *sim.Kernel
	Net  *network.Network
	DRAM *mem.DRAM
	// Exactly one of DCOH/HDir is set, per Config.Global.
	DCOH *cxl.DCOH
	HDir *hmesi.Dir

	Clusters []*Cluster

	// LocalMems holds each cluster's local memory in hybrid
	// configurations (nil entries otherwise).
	LocalMems []*mem.DRAM

	// Tracer mirrors Config.Tracer (nil when tracing is off).
	Tracer *trace.Tracer

	// Recovery aggregates host-crash recovery telemetry (crash.go);
	// meaningful only when the fault plan schedules crashes.
	Recovery RecoveryStats

	dog     *trace.Watchdog
	crashAt map[msg.NodeID]sim.Time

	finished int
	total    int
}

// CoreNode returns the synthetic trace node id for core (cluster, idx).
// Cores are not network endpoints, so their retire events use negative
// ids disjoint from every controller's.
func CoreNode(cluster, idx int) msg.NodeID {
	return msg.NodeID(-(1000*cluster + idx + 1))
}

// Proto returns "<local1>-<global>-<local2>" in the paper's notation,
// e.g. "MESI-CXL-MOESI".
func (s *System) Proto() string {
	g := "CXL"
	if s.HDir != nil {
		g = "MESI"
	}
	names := make([]string, 0, len(s.Clusters))
	for _, cl := range s.Clusters {
		names = append(names, cl.C3.Table().Local.Name)
	}
	if len(names) == 2 {
		return names[0] + "-" + g + "-" + names[1]
	}
	return fmt.Sprintf("%v-%s", names, g)
}

// Fabric is the interconnect a machine is wired onto: controllers send
// through it, and the assembler registers every node on it and connects
// every link with its network.LinkConfig. The timed network.Network is
// one; the model checker's choice fabric, which takes each link's
// ordering from the same LinkConfig, is the other.
type Fabric interface {
	network.Fabric
	Register(id msg.NodeID, p network.Port)
	Connect(a, b msg.NodeID, cfg network.LinkConfig)
}

// New assembles a machine on a timed network.Network. Node ids: 1 =
// global directory, then each cluster's C3 followed by that cluster's
// L1s.
func New(cfg Config) (*System, error) {
	k := &sim.Kernel{}
	net := network.New(k, cfg.Seed)
	if cfg.Faults != nil {
		net.EnableFaults(*cfg.Faults)
	}
	s := &System{K: k, Net: net, Tracer: cfg.Tracer}
	net.Tracer = cfg.Tracer
	if cfg.Tracer != nil && cfg.WatchdogAge != 0 {
		s.dog = trace.NewWatchdog(k, cfg.WatchdogAge, 0)
		cfg.Tracer.SetWatchdog(s.dog)
		if net.Injector() != nil {
			// With an unreliable fabric a silent line is not necessarily
			// a protocol deadlock: classify recovery-in-progress,
			// poisoned lines and dead hosts so reports (and the soak
			// harness) can tell them apart.
			s.dog.Classify = func(a mem.LineAddr) string {
				switch {
				case net.Injector().Poisoned(a):
					return "poisoned-line"
				case net.PendingRetries(a):
					return "link-retry"
				case len(net.DeadPeers()) > 0:
					return "dead-host"
				}
				return "protocol-hang"
			}
		}
	}
	if err := s.wire(cfg, net); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	if cfg.Faults != nil && len(cfg.Faults.Crashes) > 0 {
		if err := validateCrashes(cfg.Faults.Crashes, len(cfg.Clusters)); err != nil {
			return nil, err
		}
		s.armCrashes(cfg.Faults.Crashes)
	}
	return s, nil
}

// Assemble wires cfg's machine onto fabric f, driven by kernel k: the
// controllers, node numbering and links New builds, with no timed
// network under them (the model checker's machine). Seed, Faults,
// Tracer and WatchdogAge configure the timed network, so Assemble
// rejects the last three and leaves Net nil.
func Assemble(cfg Config, k *sim.Kernel, f Fabric) (*System, error) {
	if cfg.Faults != nil || cfg.Tracer != nil || cfg.WatchdogAge != 0 {
		return nil, fmt.Errorf("system: faults, tracing and the watchdog need the timed network")
	}
	s := &System{K: k}
	if err := s.wire(cfg, f); err != nil {
		return nil, err
	}
	return s, nil
}

// wire builds cfg's controllers on s.K and connects them on f.
func (s *System) wire(cfg Config, f Fabric) error {
	if len(cfg.Clusters) == 0 {
		return fmt.Errorf("system: no clusters")
	}
	if cfg.Global == "" {
		cfg.Global = "cxl"
	}
	tables := make([]*gen.Table, len(cfg.Clusters))
	for ci, cc := range cfg.Clusters {
		t, err := gen.Shared(cc.Protocol, cfg.Global)
		if err != nil {
			return fmt.Errorf("system: cluster %d: %w", ci, err)
		}
		tables[ci] = t
	}
	k, dog := s.K, s.dog
	if cfg.DRAM == (mem.DRAMConfig{}) {
		cfg.DRAM = mem.DefaultDRAMConfig()
	}
	s.DRAM = mem.NewDRAM(k, cfg.DRAM)

	intra := cfg.Intra
	if intra == (network.LinkConfig{}) {
		intra = network.IntraCluster()
	}
	cross := cfg.Cross
	if cross == (network.LinkConfig{}) {
		cross = network.CrossCluster()
	}
	// The cross tier is the CXL fabric by definition; mark it so the
	// fault injector and reliable shim target it even under overrides.
	cross.Cross = true

	const dirID = msg.NodeID(1)
	if tables[0].Global.Params.ConflictHandshake {
		s.DCOH = cxl.New(dirID, k, f, s.DRAM)
		s.DCOH.Tracer = cfg.Tracer
		f.Register(dirID, s.DCOH)
		if cfg.Tracer != nil {
			cfg.Tracer.Name(dirID, "DCOH")
			if dog != nil {
				dog.AddDumper("DCOH", s.DCOH)
			}
		}
	} else {
		s.HDir = hmesi.New(dirID, k, f, s.DRAM)
		s.HDir.Tracer = cfg.Tracer
		f.Register(dirID, s.HDir)
		if cfg.Tracer != nil {
			cfg.Tracer.Name(dirID, "HDir")
			if dog != nil {
				dog.AddDumper("HDir", s.HDir)
			}
		}
	}

	next := msg.NodeID(2)
	var c3IDs []msg.NodeID
	for ci, cc := range cfg.Clusters {
		c3ID := next
		next++
		var localMem *mem.DRAM
		if cc.LocalRange != nil {
			localMem = mem.NewDRAM(k, cfg.DRAM)
		}
		s.LocalMems = append(s.LocalMems, localMem)
		c3 := core.New(core.Config{
			ID: c3ID, GlobalDir: dirID, Kernel: k,
			LocalNet: f, GlobalNet: f, Table: tables[ci],
			LLCSize: cfg.LLCSize, LLCWays: cfg.LLCWays,
			LocalRange: cc.LocalRange, LocalMem: localMem,
		})
		c3.Tracer = cfg.Tracer
		f.Register(c3ID, c3)
		if cfg.Tracer != nil {
			label := "C3[" + strconv.Itoa(ci) + "]"
			cfg.Tracer.Name(c3ID, label)
			if dog != nil {
				dog.AddDumper(label, c3)
			}
		}
		f.Connect(c3ID, dirID, cross)
		// Peer links for 3-hop data responses (hierarchical MESI); the
		// star topology routes them through the same fabric.
		for _, peer := range c3IDs {
			f.Connect(c3ID, peer, cross)
		}
		c3IDs = append(c3IDs, c3ID)

		cl := &Cluster{Cfg: cc, C3: c3}
		for i := 0; i < cc.Cores; i++ {
			l1ID := next
			next++
			var l1 L1Port
			switch cc.Protocol {
			case "rcc", "RCC":
				l1 = hostproto.NewRCC(l1ID, c3ID, k, f, cc.L1)
			default:
				l1cfg := cc.L1
				switch cc.Protocol {
				case "moesi", "MOESI":
					l1cfg.Variant = hostproto.MOESI
				case "mesif", "MESIF":
					l1cfg.Variant = hostproto.MESIF
				default:
					l1cfg.Variant = hostproto.MESI
				}
				l1 = hostproto.NewL1(l1ID, c3ID, k, f, l1cfg)
			}
			if mesiL1, ok := l1.(*hostproto.L1); ok {
				mesiL1.Tracer = cfg.Tracer
			}
			f.Register(l1ID, l1)
			if cfg.Tracer != nil {
				label := "L1[" + strconv.Itoa(ci) + "." + strconv.Itoa(i) + "]"
				cfg.Tracer.Name(l1ID, label)
				if dog != nil {
					if d, ok := l1.(trace.Dumper); ok {
						dog.AddDumper(label, d)
					}
				}
			}
			f.Connect(l1ID, c3ID, intra)
			cl.L1s = append(cl.L1s, l1)
		}
		s.Clusters = append(s.Clusters, cl)
	}
	return nil
}

// PoisonedLines reports the lines whose data was poisoned by retry
// exhaustion on the faulty fabric (empty on a perfect fabric). A run
// that touched any of these completed by graceful degradation, not by
// coherent delivery.
func (s *System) PoisonedLines() []mem.LineAddr {
	if inj := s.Net.Injector(); inj != nil {
		return inj.PoisonedLines()
	}
	return nil
}

// AttachSource binds an instruction source to core slot (cluster, idx),
// creating the core. Call once per slot before Start.
func (s *System) AttachSource(cluster, idx int, src cpu.Source) *cpu.Core {
	cl := s.Clusters[cluster]
	if idx >= len(cl.L1s) {
		panic(fmt.Sprintf("system: cluster %d has %d cores", cluster, len(cl.L1s)))
	}
	ccfg := cl.Cfg.Core
	if ccfg.WindowSize == 0 {
		ccfg = cpu.DefaultConfig(cl.Cfg.MCM)
	}
	id := cluster*1000 + idx
	c := cpu.New(id, s.K, ccfg, cl.L1s[idx], src, func() { s.finished++ })
	if s.Tracer != nil {
		s.Tracer.Name(CoreNode(cluster, idx), "core "+strconv.Itoa(cluster)+"."+strconv.Itoa(idx))
	}
	s.total++
	for len(cl.Cores) <= idx {
		cl.Cores = append(cl.Cores, nil)
	}
	cl.Cores[idx] = c
	return c
}

// Start launches every attached core.
func (s *System) Start() {
	for _, cl := range s.Clusters {
		for _, c := range cl.Cores {
			if c != nil {
				c.Start()
			}
		}
	}
}

// Done reports whether every attached core has drained.
func (s *System) Done() bool { return s.finished == s.total }

// Release retires the system, dropping its references to the pooled
// cache frame slabs and per-line tables so they recycle (see
// cache.Release and mem.Table.Release), and handing the hang watchdog's
// history ring to the next watchdog (trace.Watchdog.Release). The
// system must not be used afterwards. The litmus runner releases each
// iteration's private system, which removes the dominant per-iteration
// allocations (the multi-MiB CXL-cache arrays and the watchdog's event
// history).
func (s *System) Release() {
	if s.dog != nil {
		s.dog.Release()
	}
	for _, cl := range s.Clusters {
		cl.C3.Release()
		for _, l1 := range cl.L1s {
			if r, ok := l1.(interface{ Release() }); ok {
				r.Release()
			}
		}
	}
	if s.DCOH != nil {
		s.DCOH.Release()
	}
	if s.HDir != nil {
		s.HDir.Release()
	}
	s.DRAM.Release()
	for _, lm := range s.LocalMems {
		if lm != nil {
			lm.Release()
		}
	}
}

// Run starts the cores and processes events until all cores finish or
// limit events elapse (0 = unlimited). It reports whether the run
// completed.
func (s *System) Run(limit uint64) bool {
	s.Start()
	start := s.K.Stepped
	for !s.Done() {
		if limit != 0 && s.K.Stepped-start >= limit {
			return false
		}
		if !s.K.Step() {
			return s.Done()
		}
	}
	return true
}

// Time returns the completion time of the slowest core (the execution
// time metric of Figs. 9/10).
func (s *System) Time() sim.Time {
	var t sim.Time
	for _, cl := range s.Clusters {
		for _, c := range cl.Cores {
			if c != nil && c.FinishedAt > t {
				t = c.FinishedAt
			}
		}
	}
	return t
}
