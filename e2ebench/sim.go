package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"c3/internal/core"
	"c3/internal/cpu"
	"c3/internal/msg"
	"c3/internal/protocol/cxl"
	"c3/internal/protocol/hmesi"
	"c3/internal/protocol/hostproto"
	"c3/internal/sim"
	"c3/internal/stats"
	"c3/internal/system"
	"c3/internal/workload"
)

// simBench runs one kernel on MESI-CXL-MESI and MESI-MESI-MESI, 4 ARM
// cores per cluster. Unit i runs configuration i%2 on simulation seed
// base+i/2, so a pass is the two configurations on one seed.
type simBench struct {
	spec workload.Spec
	base int64
}

var simGlobals = [2]string{"cxl", "hmesi"}

const (
	simCores = 4
	// simLimit mirrors workload.RunOn's default wedge guard.
	simLimit = 200_000_000
	// simTraceSet is the fixed unit set the traced run covers, so its
	// counts repeat exactly from run to run and commit to commit.
	simTraceSet = 12
)

func newSim(kernel string, seed int64) *simBench {
	spec, ok := workload.ByName(kernel)
	if !ok {
		panic("unknown kernel " + kernel)
	}
	return &simBench{spec: spec, base: seed * 1_000_000}
}

func (b *simBench) config(i int) workload.RunConfig {
	return workload.RunConfig{
		Spec:            b.spec,
		Global:          simGlobals[i%2],
		Locals:          [2]string{"mesi", "mesi"},
		MCMs:            [2]cpu.MCM{cpu.WMO, cpu.WMO},
		CoresPerCluster: simCores,
		Seed:            b.base + int64(i/2),
	}
}

// simWarmSeed is the simulation seed of the warm-up pass. It is fixed,
// so set-up does the same work whatever the benchmark seed, and it lies
// outside every unit set.
const simWarmSeed = 999_999

// setup warms up with one pass: both configurations on simWarmSeed.
func (b *simBench) setup() error {
	for i := 0; i < 2; i++ {
		cfg := b.config(i)
		cfg.Seed = simWarmSeed
		if _, _, err := workload.RunOn(cfg); err != nil {
			return err
		}
	}
	return nil
}

// simOut is what a simulation produced, for correctness and replay
// comparison.
type simOut struct {
	run     stats.Run
	events  uint64
	retired uint64
	metrics []byte
}

// check validates a finished simulation: every core finished unhalted
// and the workload retired its whole budget.
func (b *simBench) check(cfg workload.RunConfig, r stats.Run, sys *system.System) (simOut, error) {
	out := simOut{run: r, events: sys.K.Stepped}
	for _, cl := range sys.Clusters {
		for _, c := range cl.Cores {
			if c == nil || !c.Finished() || c.Halted() {
				return out, fmt.Errorf("%s seed %d: a core did not finish", cfg.Global, cfg.Seed)
			}
			out.retired += c.Retired
		}
	}
	budget := uint64(b.spec.Ops * 2 * simCores)
	if r.Miss.Ops < budget || out.retired < budget {
		return out, fmt.Errorf("%s seed %d: %d ops observed, %d retired, budget %d",
			cfg.Global, cfg.Seed, r.Miss.Ops, out.retired, budget)
	}
	var buf bytes.Buffer
	if err := sys.Metrics().RenderJSON(&buf); err != nil {
		return out, err
	}
	out.metrics = buf.Bytes()
	return out, nil
}

// unit runs one untraced simulation through workload.RunOn.
func (b *simBench) unit(i int) (simOut, time.Duration, error) {
	cfg := b.config(i)
	t0 := time.Now()
	r, sys, err := workload.RunOn(cfg)
	d := time.Since(t0)
	if err != nil {
		return simOut{}, d, err
	}
	out, err := b.check(cfg, r, sys)
	return out, d, err
}

func (b *simBench) measure(deadline time.Time, t *tally) {
	var first simOut
	for i := 0; ; i += 2 {
		var p pass
		t0 := time.Now()
		for j := i; j < i+2; j++ {
			t.attempted++
			out, d, err := b.unit(j)
			t.unitMS = append(t.unitMS, float64(d)/1e6)
			if err != nil {
				t.fail("sim unit %d: %v", j, err)
				continue
			}
			if j == 0 {
				first = out
			}
			p.ops += float64(out.retired)
			p.execs++
		}
		p.secs = time.Since(t0).Seconds()
		t.passes = append(t.passes, p)
		if time.Now().After(deadline) {
			break
		}
	}
	// The first seed, re-run in-process, must reproduce its stats.Run
	// and its registry dump exactly.
	t.attempted++
	again, _, err := b.unit(0)
	if err != nil {
		t.fail("sim replay: %v", err)
	} else if again.run != first.run || !bytes.Equal(again.metrics, first.metrics) {
		t.fail("sim replay of unit 0 differs from its first run")
	}
}

// Span kinds of the traced simulation. A kernel Step is classified by
// the node its message delivery reached; a Step without a delivery is
// core pump/issue, L1 timer or DRAM callback work.
const (
	kCPU = iota
	kL1Recv
	kC3Recv
	kDCOHRecv
	kHDirRecv
	kAccess   // hostproto L1 Access, through Core.BindL1
	kNext     // cpu.Source Next
	kComplete // cpu.Source Complete
	kBuild    // system.New + core attach
	numKinds
)

// timedL1 wraps a core's memory port to time L1 Access calls.
type timedL1 struct {
	cpu.MemPort
	sp *spans
}

func (l *timedL1) Access(req cpu.Request, done func(cpu.Response)) {
	t0 := l.sp.begin()
	l.MemPort.Access(req, done)
	l.sp.end(kAccess, t0)
}

// timedSource wraps a workload source to time instruction generation.
type timedSource struct {
	cpu.Source
	sp *spans
}

func (s *timedSource) Next() (cpu.Instr, bool) {
	t0 := s.sp.begin()
	in, ok := s.Source.Next()
	s.sp.end(kNext, t0)
	return in, ok
}

func (s *timedSource) Complete(in cpu.Instr, loaded uint64) {
	t0 := s.sp.begin()
	s.Source.Complete(in, loaded)
	s.sp.end(kComplete, t0)
}

// simTrace accumulates the traced run's counts over the unit set.
type simTrace struct {
	sp      *spans
	pending uint64 // Σ queued events seen before each Step
	sims    [2]int // per configuration
	events  uint64
	retired uint64
	msgs    uint64
	bytes   uint64
	l1Acc   uint64
	l1Miss  uint64
	c3      core.Stats
	dcoh    cxl.Stats
	hdir    hmesi.Stats
	simNS   float64
	miss    stats.MissBreakdown
}

// tracedUnit replays workload.RunOn's assembly and run loop from the
// outside: it drives sys.Start and the kernel Step loop itself, times
// every Step, and classifies it through the Network.Trace delivery hook.
func (b *simBench) tracedUnit(i int, tr *simTrace) (simOut, error) {
	cfg := b.config(i)
	spec := cfg.Spec
	sp := tr.sp
	t0 := sp.begin()
	sys, err := system.New(system.Config{
		Global: cfg.Global,
		Seed:   cfg.Seed,
		Clusters: []system.ClusterConfig{
			{Protocol: cfg.Locals[0], MCM: cfg.MCMs[0], Cores: simCores},
			{Protocol: cfg.Locals[1], MCM: cfg.MCMs[1], Cores: simCores},
		},
	})
	if err != nil {
		sp.end(kBuild, t0)
		return simOut{}, err
	}
	var miss stats.MissBreakdown
	total := 2 * simCores
	id := 0
	for cl := 0; cl < 2; cl++ {
		for j := 0; j < simCores; j++ {
			src := &timedSource{Source: workload.NewSource(&spec, id, total, cfg.Seed+101), sp: sp}
			c := sys.AttachSource(cl, j, src)
			c.Observe = miss.Observe
			c.BindL1(&timedL1{MemPort: sys.Clusters[cl].L1s[j], sp: sp})
			id++
		}
	}
	// Destination node → Step kind: node 1 is the global directory, then
	// one id per C3 and one per L1 (system.New's numbering).
	dirKind := kDCOHRecv
	if sys.HDir != nil {
		dirKind = kHDirRecv
	}
	kinds := make([]int, 2+len(sys.Clusters)*(1+simCores))
	kinds[1] = dirKind
	for _, cl := range sys.Clusters {
		kinds[cl.C3.ID()] = kC3Recv
		for _, l1 := range cl.L1s {
			kinds[l1.ID()] = kL1Recv
		}
	}
	kind := kCPU
	sys.Net.Trace = func(m *msg.Msg, delivered bool) {
		if delivered {
			kind = kinds[m.Dst]
		}
	}
	sp.end(kBuild, t0)

	k := sys.K
	sys.Start()
	start := k.Stepped
	for !sys.Done() {
		if k.Stepped-start >= simLimit {
			return simOut{}, fmt.Errorf("%s seed %d: wedged after %d events", cfg.Global, cfg.Seed, simLimit)
		}
		tr.pending += uint64(k.Pending())
		kind = kCPU
		t := sp.begin()
		ok := k.Step()
		sp.end(kind, t)
		if !ok {
			break
		}
	}
	if !sys.Done() {
		return simOut{}, fmt.Errorf("%s seed %d: event queue drained before every core finished", cfg.Global, cfg.Seed)
	}
	r := stats.Run{
		Name:   spec.Name,
		Config: fmt.Sprintf("%s/%v-%v", sys.Proto(), cfg.MCMs[0], cfg.MCMs[1]),
		Time:   sys.Time(),
		Miss:   miss,
	}
	out, err := b.check(cfg, r, sys)
	if err != nil {
		return out, err
	}
	tr.sims[i%2]++
	tr.events += out.events
	tr.retired += out.retired
	tr.msgs += sys.Net.Stats.TotalMsgs()
	tr.bytes += sys.Net.Stats.TotalBytes()
	tr.simNS += float64(r.Time) / sim.CyclesPerNS
	tr.miss.Merge(&r.Miss)
	for _, cl := range sys.Clusters {
		st := cl.C3.Stats
		tr.c3.Conflicts += st.Conflicts
		tr.c3.Stalled += st.Stalled
		tr.c3.SnoopsServed += st.SnoopsServed
		tr.c3.Delegations += st.Delegations
		for _, p := range cl.L1s {
			if l1, ok := p.(*hostproto.L1); ok {
				tr.l1Acc += l1.Accesses
				tr.l1Miss += l1.Misses
			}
		}
	}
	if d := sys.DCOH; d != nil {
		tr.dcoh.Snoops += d.Stats.Snoops
		tr.dcoh.Conflicts += d.Stats.Conflicts
		tr.dcoh.Stalls += d.Stats.Stalls
	}
	if h := sys.HDir; h != nil {
		tr.hdir.Fwds += h.Stats.Fwds
		tr.hdir.Invs += h.Stats.Invs
		tr.hdir.Stalls += h.Stats.Stalls
	}
	return out, nil
}

// trace alternates an untraced and a traced pass over the fixed unit
// set until the deadline. Every traced unit must reproduce its untraced
// twin's stats.Run, event count, op count and registry dump exactly.
func (b *simBench) trace(deadline time.Time, t *tally, rows map[string]float64) {
	tr := &simTrace{sp: newSpans(numKinds)}
	var untraced, traced time.Duration
	a := readAllocs()
	rounds := 0
	for rounds == 0 || time.Now().Before(deadline) {
		rounds++
		plain := make([]simOut, simTraceSet)
		for i := range plain {
			t.attempted++
			out, d, err := b.unit(i)
			untraced += d
			if err != nil {
				t.fail("sim unit %d: %v", i, err)
			}
			plain[i] = out
		}
		if rounds == 1 {
			allocRows(rows, a, simTraceSet)
		}
		for i := range plain {
			t.attempted++
			t0 := time.Now()
			out, err := b.tracedUnit(i, tr)
			traced += time.Since(t0)
			switch {
			case err != nil:
				t.fail("traced sim unit %d: %v", i, err)
			case out.run != plain[i].run || out.events != plain[i].events ||
				out.retired != plain[i].retired || !bytes.Equal(out.metrics, plain[i].metrics):
				t.fail("traced sim unit %d does not reproduce the untraced run", i)
			}
		}
	}
	sp := tr.sp
	n := float64(tr.sims[0] + tr.sims[1])
	ops := float64(tr.retired)
	steps := float64(tr.events)
	var stepNS float64
	for k := kCPU; k < kBuild; k++ {
		stepNS += sp.selfNS(k)
	}
	rows["sim.events_per_op"] = steps / ops
	rows["sim.step_ns"] = stepNS / steps
	rows["sim.pending_mean"] = float64(tr.pending) / steps

	rows["cpu.events"] = float64(sp.calls[kCPU]) / n
	rows["cpu.self_ns"] = sp.perCall(kCPU)
	rows["workload.next_ns"] = ratio(sp.selfNS(kNext)+sp.selfNS(kComplete), float64(sp.calls[kNext]))

	rows["hostproto.access_calls"] = float64(sp.calls[kAccess]) / n
	rows["hostproto.access_ns"] = sp.perCall(kAccess)
	rows["hostproto.recv_msgs"] = float64(sp.calls[kL1Recv]) / n
	rows["hostproto.recv_ns"] = sp.perCall(kL1Recv)
	rows["hostproto.miss_ratio"] = ratio(float64(tr.l1Miss), float64(tr.l1Acc))

	rows["core.recv_msgs"] = float64(sp.calls[kC3Recv]) / n
	rows["core.recv_ns"] = sp.perCall(kC3Recv)
	rows["core.conflicts"] = float64(tr.c3.Conflicts) / n
	rows["core.stalled"] = float64(tr.c3.Stalled) / n
	rows["core.snoops_served"] = float64(tr.c3.SnoopsServed) / n
	rows["core.delegations"] = float64(tr.c3.Delegations) / n

	cxlSims, hmesiSims := float64(tr.sims[0]), float64(tr.sims[1])
	rows["cxl.recv_msgs"] = ratio(float64(sp.calls[kDCOHRecv]), cxlSims)
	rows["cxl.recv_ns"] = sp.perCall(kDCOHRecv)
	rows["cxl.snoops"] = ratio(float64(tr.dcoh.Snoops), cxlSims)
	rows["cxl.conflicts"] = ratio(float64(tr.dcoh.Conflicts), cxlSims)
	rows["cxl.stalls"] = ratio(float64(tr.dcoh.Stalls), cxlSims)
	rows["hmesi.recv_msgs"] = ratio(float64(sp.calls[kHDirRecv]), hmesiSims)
	rows["hmesi.recv_ns"] = sp.perCall(kHDirRecv)
	rows["hmesi.fwds"] = ratio(float64(tr.hdir.Fwds), hmesiSims)
	rows["hmesi.invs"] = ratio(float64(tr.hdir.Invs), hmesiSims)
	rows["hmesi.stalls"] = ratio(float64(tr.hdir.Stalls), hmesiSims)

	rows["network.msgs_per_op"] = float64(tr.msgs) / ops
	rows["network.bytes_per_op"] = float64(tr.bytes) / ops

	rows["stats.sim_ns"] = tr.simNS / n
	rows["stats.mpki"] = tr.miss.MPKI()
	rows["stats.miss_cycles_xcluster"] = float64(tr.miss.BandCycles(stats.BandHigh)) / n

	// Closure: the layers' self times (every Step, split by layer, plus
	// machine assembly) against the untraced wall of the same units.
	attributed := stepNS + sp.selfNS(kBuild)
	rows["attrib.coverage"] = attributed / float64(untraced)
	rows["attrib.trace_overhead"] = float64(traced) / float64(untraced)
	microRows(rows, false)
	fmt.Fprintf(os.Stderr, "e2ebench: traced %d rounds of %d simulations; coverage %.3f (tolerance %.2f-%.2f), overhead %.2fx, span cost %.1f+%.1f ns\n",
		rounds, simTraceSet, rows["attrib.coverage"], coverageLo, coverageHi, rows["attrib.trace_overhead"], spanNS, kidNS)
	if c := rows["attrib.coverage"]; c < coverageLo || c > coverageHi {
		fmt.Fprintln(os.Stderr, "e2ebench: WARNING: layer rows do not explain the untraced wall within tolerance")
	}
}

// coverageLo/Hi bound the sim closure: Σ(layer count × unit cost) must
// land within this band of the untraced wall.
const coverageLo, coverageHi = 0.8, 1.2
