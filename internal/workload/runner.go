package workload

import (
	"fmt"

	"c3/internal/cpu"
	"c3/internal/faults"
	"c3/internal/sim"
	"c3/internal/stats"
	"c3/internal/system"
	"c3/internal/trace"
)

// RunConfig describes one workload execution.
type RunConfig struct {
	Spec   Spec
	Global string    // "cxl" or "hmesi"
	Locals [2]string // cluster protocols
	MCMs   [2]cpu.MCM
	// CoresPerCluster; the paper calibrates 8-30 total cores per app,
	// we default to 4 per cluster.
	CoresPerCluster int
	// OpsScale multiplies Spec.Ops (benchmark harness uses small scales
	// for quick runs, cmd/c3bench larger ones).
	OpsScale float64
	Seed     int64
	// EventLimit aborts wedged runs (0 = 200M events).
	EventLimit uint64
	// Hybrid homes each core's private and streaming regions in its
	// cluster's local memory (the paper's Sec. IV-D4 hybrid
	// configuration); only shared, hot and sync lines stay in the CXL
	// pool.
	Hybrid bool
	// Tracer, when non-nil, observes the run (protocol trace +
	// retirement events).
	Tracer *trace.Tracer
	// WatchdogAge arms hang detection (cycles; 0 = off). Requires
	// Tracer. A detected hang aborts the run with the diagnostic report
	// as the error.
	WatchdogAge sim.Time
	// MissHist, when non-nil, receives every miss latency sample.
	MissHist *trace.LatencyHist
	// Faults arms the cross-cluster fault injector (nil = perfect
	// fabric). A run on a faulty fabric may complete with poisoned
	// lines; they surface in the returned Run and the system metrics.
	Faults *faults.Plan
}

// observer builds the per-core completion hook: the Fig. 11 breakdown
// always accumulates; the optional miss histogram and retirement trace
// ride along only when configured.
func observer(cfg *RunConfig, sys *system.System, cl, idx int, miss *stats.MissBreakdown) func(cpu.OpStats) {
	if cfg.Tracer == nil && cfg.MissHist == nil {
		return miss.Observe
	}
	node := system.CoreNode(cl, idx)
	tr, hist, k := cfg.Tracer, cfg.MissHist, sys.K
	return func(s cpu.OpStats) {
		miss.Observe(s)
		if hist != nil && s.Missed {
			hist.Observe(s.Latency)
		}
		if tr != nil {
			note := s.Kind.String()
			if s.Missed {
				note += " miss"
			}
			tr.Retire(k.Now(), node, s.Addr.Line(), note)
		}
	}
}

// CheckFaults rejects a fault plan spec cannot run under: host crashes
// on a kernel with barriers. A crash halts the crashed cluster's cores
// for good (a rejoin restores the machine, not the program), so the
// survivors would wait at the next barrier until the event limit. Lock
// kernels are fine: their survivors finish. RunOn calls it before
// building anything; c3sim calls it before any run, as a usage error.
func CheckFaults(spec Spec, plan *faults.Plan) error {
	if plan != nil && len(plan.Crashes) > 0 && spec.BarrierEvery > 0 {
		return fmt.Errorf("workload %s: cannot run a host crash: it has barriers (every %d ops), which the crashed cluster's halted cores never reach",
			spec.Name, spec.BarrierEvery)
	}
	return nil
}

// Run executes one workload and returns its datapoint. The machine is
// released afterwards, so sweeps recycle its cache slabs.
func Run(cfg RunConfig) (stats.Run, error) {
	r, sys, err := RunOn(cfg)
	if sys != nil {
		sys.Release()
	}
	return r, err
}

// RunOn is Run plus the assembled system, for tools that report
// controller and directory counters after the run.
func RunOn(cfg RunConfig) (stats.Run, *system.System, error) {
	spec := cfg.Spec
	if err := spec.Validate(); err != nil {
		return stats.Run{}, nil, err
	}
	if err := CheckFaults(spec, cfg.Faults); err != nil {
		return stats.Run{}, nil, err
	}
	if cfg.CoresPerCluster <= 0 {
		cfg.CoresPerCluster = 4
	}
	if cfg.OpsScale > 0 {
		spec.Ops = int(float64(spec.Ops) * cfg.OpsScale)
		if spec.Ops < 1 {
			spec.Ops = 1
		}
	}
	if cfg.Global == "" {
		cfg.Global = "cxl"
	}
	if cfg.Locals[0] == "" {
		cfg.Locals = [2]string{"mesi", "mesi"}
	}
	limit := cfg.EventLimit
	if limit == 0 {
		limit = 200_000_000
	}

	clusters := []system.ClusterConfig{
		{Protocol: cfg.Locals[0], MCM: cfg.MCMs[0], Cores: cfg.CoresPerCluster},
		{Protocol: cfg.Locals[1], MCM: cfg.MCMs[1], Cores: cfg.CoresPerCluster},
	}
	if cfg.Hybrid {
		for ci := range clusters {
			clusters[ci].LocalRange = PrivateRangeOf(ci, cfg.CoresPerCluster)
		}
	}
	sys, err := system.New(system.Config{
		Global:      cfg.Global,
		Seed:        cfg.Seed,
		Clusters:    clusters,
		Tracer:      cfg.Tracer,
		WatchdogAge: cfg.WatchdogAge,
		Faults:      cfg.Faults,
	})
	if err != nil {
		return stats.Run{}, nil, err
	}
	var dog *trace.Watchdog
	if cfg.Tracer != nil {
		if dog = cfg.Tracer.Watchdog(); dog != nil {
			// Capture the report instead of panicking; Run aborts below.
			dog.OnHang = func(string) {}
		}
	}

	total := 2 * cfg.CoresPerCluster
	var miss stats.MissBreakdown
	id := 0
	for cl := 0; cl < 2; cl++ {
		for i := 0; i < cfg.CoresPerCluster; i++ {
			src := NewSource(&spec, id, total, cfg.Seed+101)
			c := sys.AttachSource(cl, i, src)
			c.Observe = observer(&cfg, sys, cl, i, &miss)
			id++
		}
	}
	completed := sys.Run(limit)
	if dog != nil && dog.Fired() {
		return stats.Run{}, sys, fmt.Errorf("workload %s (%s): watchdog hang\n%s",
			spec.Name, sys.Proto(), dog.Report())
	}
	if !completed {
		return stats.Run{}, sys, fmt.Errorf("workload %s (%s): wedged after %d events",
			spec.Name, sys.Proto(), limit)
	}
	return stats.Run{
		Name:   spec.Name,
		Config: fmt.Sprintf("%s/%v-%v", sys.Proto(), cfg.MCMs[0], cfg.MCMs[1]),
		Time:   sys.Time(),
		Miss:   miss,
	}, sys, nil
}
