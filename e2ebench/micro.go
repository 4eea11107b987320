package main

import (
	"c3/internal/cache"
	"c3/internal/faults"
	"c3/internal/gen"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
	"c3/internal/ssp"
	"c3/internal/system"
)

// Unit-cost rows: fixed-count loops over single public functions, each
// repeated microReps times with the median per-call cost reported. They
// price the counts the traced runs collect.
const microReps = 5

// microRows adds the unit-cost rows every traced run reports. shim
// selects the Network.Send path: the reliable-delivery shim on a faulty
// fabric (the soak workload's path) or the perfect fabric.
func microRows(rows map[string]float64, shim bool) {
	rows["cache.probe_ns"] = medianOf(cacheProbeNS)
	rows["cache.install_ns"] = medianOf(cacheInstallNS)
	rows["network.send_ns"] = medianOf(func() float64 { return sendNS(shim) })
	rows["gen.generate_us"] = medianOf(generateNS) / 1e3
	rows["system.build_us"] = medianOf(buildNS) / 1e3
}

func medianOf(f func() float64) float64 {
	xs := make([]float64, microReps)
	for i := range xs {
		xs[i] = f()
	}
	return quantile(xs, 0.5)
}

// line returns the address of line number i.
func line(i uint64) mem.LineAddr { return mem.LineAddr(i << mem.LineShift) }

// l1Cache returns an empty cache of the Table III private-cache geometry.
func l1Cache() *cache.Cache { return cache.New(128*1024, 8) }

// cacheProbeNS times Probe on a full L1-size cache, half hits and half
// misses.
func cacheProbeNS() float64 {
	c := l1Cache()
	defer c.Release()
	lines := uint64(c.Sets() * c.Ways())
	for i := uint64(0); i < lines; i++ {
		c.Install(line(i))
	}
	const n = 1 << 20
	var hits int
	t0 := now()
	for i := uint64(0); i < n; i++ {
		// Odd multiplier: a permutation over 2×lines lines.
		if c.Probe(line(i*2654435761%(2*lines))) != nil {
			hits++
		}
	}
	d := now() - t0
	if hits == 0 {
		panic("cache probe micro: no hits")
	}
	return float64(d) / n
}

// cacheInstallNS times Install filling an empty L1-size cache.
func cacheInstallNS() float64 {
	var total int64
	var calls int
	for r := 0; r < 64; r++ {
		c := l1Cache()
		lines := uint64(c.Sets() * c.Ways())
		t0 := now()
		for i := uint64(0); i < lines; i++ {
			c.Install(line(i))
		}
		total += now() - t0
		calls += int(lines)
		c.Release()
	}
	return float64(total) / float64(calls)
}

// countPort counts deliveries.
type countPort struct{ n int }

func (p *countPort) Recv(*msg.Msg) { p.n++ }

// sendNS times Network.Send on one cross-cluster link in batches; the
// kernel delivers each batch (untimed) before the next.
func sendNS(shim bool) float64 {
	k := &sim.Kernel{}
	n := network.New(k, 1)
	if shim {
		n.EnableFaults(faults.Plan{Seed: 1, Rates: faults.Rates{Drop: 0.01, Dup: 0.01}})
	}
	sink := &countPort{}
	n.Register(1, &countPort{})
	n.Register(2, sink)
	n.Connect(2, 1, network.CrossCluster())
	const batch, rounds = 64, 2048
	ms := make([]msg.Msg, batch)
	var total int64
	for r := 0; r < rounds; r++ {
		for i := range ms {
			ms[i] = msg.Msg{Type: msg.GetS, Addr: line(uint64(i)), Src: 1, Dst: 2, VNet: msg.VReq}
		}
		t0 := now()
		for i := range ms {
			n.Send(&ms[i])
		}
		total += now() - t0
		k.Run(nil)
	}
	if sink.n < batch*rounds/2 {
		panic("network send micro: messages not delivered")
	}
	return float64(total) / (batch * rounds)
}

// generateNS times gen.Generate for the MESI-CXL compound controller.
func generateNS() float64 {
	local, _ := ssp.Local("mesi")
	global, _ := ssp.Global("cxl")
	const n = 200
	t0 := now()
	for i := 0; i < n; i++ {
		if _, err := gen.Generate(local, global); err != nil {
			panic(err)
		}
	}
	return float64(now()-t0) / n
}

// buildNS times system.New + Release for a litmus-size machine: two
// MESI clusters of one core each under CXL.
func buildNS() float64 {
	cfg := system.Config{Global: "cxl", Clusters: []system.ClusterConfig{
		{Protocol: "mesi", Cores: 1}, {Protocol: "mesi", Cores: 1},
	}}
	const n = 200
	t0 := now()
	for i := 0; i < n; i++ {
		cfg.Seed = int64(i)
		sys, err := system.New(cfg)
		if err != nil {
			panic(err)
		}
		sys.Release()
	}
	return float64(now()-t0) / n
}
