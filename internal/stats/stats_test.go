package stats

import (
	"strings"
	"testing"

	"c3/internal/cpu"
	"c3/internal/sim"
)

func TestBandOf(t *testing.T) {
	cases := []struct {
		lat  sim.Time
		want Band
	}{
		{0, BandLow},
		{sim.NS(74), BandLow},
		{sim.NS(75), BandMed},
		{sim.NS(300), BandMed},
		{sim.NS(301), BandHigh},
		{sim.NS(2000), BandHigh},
	}
	for _, c := range cases {
		if got := BandOf(c.lat); got != c.want {
			t.Errorf("BandOf(%d) = %v, want %v", c.lat, got, c.want)
		}
	}
}

// TestBandBoundaries pins the band edges the Band doc comment promises:
// 75 ns starts the middle band, 300 ns is inclusive on the high side.
// Fig. 11 reproductions depend on these exact cut points; shifting either
// silently reclassifies misses between semantic categories.
func TestBandBoundaries(t *testing.T) {
	edges := []struct {
		ns   uint64
		want Band
	}{
		{74, BandLow}, {75, BandMed},
		{300, BandMed}, {301, BandHigh},
	}
	for _, e := range edges {
		if got := BandOf(sim.NS(e.ns)); got != e.want {
			t.Errorf("BandOf(NS(%d)) = %v, want %v", e.ns, got, e.want)
		}
	}
	// One cycle below the 75 ns edge is still low: the comparison is on
	// cycles, not whole nanoseconds.
	if got := BandOf(sim.NS(75) - 1); got != BandLow {
		t.Errorf("BandOf(NS(75)-1) = %v, want BandLow", got)
	}
	if got := BandOf(sim.NS(300) + 1); got != BandHigh {
		t.Errorf("BandOf(NS(300)+1) = %v, want BandHigh", got)
	}
	labels := map[Band]string{BandLow: "<75ns", BandMed: "75-300ns", BandHigh: ">300ns"}
	for b, want := range labels {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(cpu.Load) != ClassLoad || ClassOf(cpu.Store) != ClassStore ||
		ClassOf(cpu.RMWAdd) != ClassRMW || ClassOf(cpu.RMWXchg) != ClassRMW {
		t.Fatal("ClassOf mapping wrong")
	}
}

func TestMissBreakdownAccounting(t *testing.T) {
	var m MissBreakdown
	m.Observe(cpu.OpStats{Kind: cpu.Load})                                        // hit
	m.Observe(cpu.OpStats{Kind: cpu.Load, Missed: true, Latency: sim.NS(50)})     // low
	m.Observe(cpu.OpStats{Kind: cpu.Store, Missed: true, Latency: sim.NS(200)})   // med
	m.Observe(cpu.OpStats{Kind: cpu.RMWAdd, Missed: true, Latency: sim.NS(1000)}) // high
	if m.Ops != 4 || m.Hits != 1 || m.TotalMisses() != 3 {
		t.Fatalf("counts: ops=%d hits=%d misses=%d", m.Ops, m.Hits, m.TotalMisses())
	}
	want := uint64(sim.NS(50) + sim.NS(200) + sim.NS(1000))
	if m.TotalMissCycles() != want {
		t.Fatalf("cycles = %d, want %d", m.TotalMissCycles(), want)
	}
	if m.BandCycles(BandHigh) != uint64(sim.NS(1000)) {
		t.Fatalf("high band = %d", m.BandCycles(BandHigh))
	}
	if mpki := m.MPKI(); mpki != 750 {
		t.Fatalf("MPKI = %v, want 750", mpki)
	}
	var o MissBreakdown
	o.Merge(&m)
	o.Merge(&m)
	if o.TotalMisses() != 6 || o.Ops != 8 {
		t.Fatalf("merge: %d/%d", o.TotalMisses(), o.Ops)
	}
	r := m.Render()
	for _, s := range []string{"load", "store", "rmw", "<75ns", ">300ns"} {
		if !strings.Contains(r, s) {
			t.Errorf("Render missing %q", s)
		}
	}
}

func TestSeriesGeoMean(t *testing.T) {
	var s Series
	s.Add(Run{Name: "a", Time: 110})
	s.Add(Run{Name: "b", Time: 240})
	gm := s.GeoMeanTime()
	if gm < 162 || gm > 163 { // sqrt(110*240) ~ 162.5
		t.Fatalf("geomean = %v", gm)
	}
	var empty Series
	if empty.GeoMeanTime() != 0 {
		t.Fatal("empty geomean should be 0")
	}
}

func TestMPKIEmpty(t *testing.T) {
	var m MissBreakdown
	if m.MPKI() != 0 {
		t.Fatal("MPKI of empty breakdown should be 0")
	}
}
