// Package stats aggregates run telemetry into the quantities the paper
// reports: execution time (Figs. 9/10), miss-cycle breakdowns by latency
// band and instruction type (Fig. 11), and MPKI for workload calibration.
package stats

import (
	"fmt"
	"math"
	"strings"

	"c3/internal/cpu"
	"c3/internal/sim"
)

// Band classifies a miss by its round-trip latency, mirroring Fig. 11's
// three semantic categories: intra-cluster coherence, device memory
// access, and cross-cluster coherence. The paper draws the upper
// boundary at its 400 ns memory round trip; this simulator's plain
// device accesses finish faster (Table III latencies without the PCIe
// stack overheads gem5 adds), so the equivalent boundary here is
// 300 ns — multi-hop cross-cluster transactions land above it, plain
// device accesses below. The band edges (75 ns, 300 ns, inclusive on
// the high side) are pinned by TestBandBoundaries.
type Band uint8

const (
	BandLow  Band = iota // < 75 ns: intra-cluster transactions
	BandMed              // 75-300 ns: device memory access
	BandHigh             // > 300 ns: cross-cluster coherence
	NumBands
)

func (b Band) String() string {
	switch b {
	case BandLow:
		return "<75ns"
	case BandMed:
		return "75-300ns"
	case BandHigh:
		return ">300ns"
	}
	return fmt.Sprintf("Band(%d)", uint8(b))
}

// BandOf buckets a miss latency (in cycles at 2 GHz).
func BandOf(lat sim.Time) Band {
	switch {
	case lat < sim.NS(75):
		return BandLow
	case lat <= sim.NS(300):
		return BandMed
	default:
		return BandHigh
	}
}

// OpClass groups instruction kinds as Fig. 11 does: loads vs. stores vs.
// read-modify-writes.
type OpClass uint8

const (
	ClassLoad OpClass = iota
	ClassStore
	ClassRMW
	NumClasses
)

func (c OpClass) String() string {
	switch c {
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassRMW:
		return "rmw"
	}
	return fmt.Sprintf("OpClass(%d)", uint8(c))
}

// ClassOf maps a cpu op kind to its Fig. 11 class.
func ClassOf(k cpu.Kind) OpClass {
	switch k {
	case cpu.Load:
		return ClassLoad
	case cpu.Store:
		return ClassStore
	case cpu.RMWAdd, cpu.RMWXchg:
		return ClassRMW
	}
	return ClassLoad
}

// MissBreakdown accumulates total miss cycles per (class, band) — the
// Fig. 11 histogram — plus hit/miss counts for MPKI.
type MissBreakdown struct {
	Cycles [NumClasses][NumBands]uint64
	Misses [NumClasses][NumBands]uint64
	Ops    uint64
	Hits   uint64
}

// Observe is wired as cpu.Core.Observe.
func (m *MissBreakdown) Observe(s cpu.OpStats) {
	m.Ops++
	if !s.Missed {
		m.Hits++
		return
	}
	c, b := ClassOf(s.Kind), BandOf(s.Latency)
	m.Cycles[c][b] += uint64(s.Latency)
	m.Misses[c][b]++
}

// Merge folds o into m.
func (m *MissBreakdown) Merge(o *MissBreakdown) {
	for c := 0; c < int(NumClasses); c++ {
		for b := 0; b < int(NumBands); b++ {
			m.Cycles[c][b] += o.Cycles[c][b]
			m.Misses[c][b] += o.Misses[c][b]
		}
	}
	m.Ops += o.Ops
	m.Hits += o.Hits
}

// TotalMissCycles sums every bucket.
func (m *MissBreakdown) TotalMissCycles() uint64 {
	var t uint64
	for c := 0; c < int(NumClasses); c++ {
		for b := 0; b < int(NumBands); b++ {
			t += m.Cycles[c][b]
		}
	}
	return t
}

// TotalMisses counts all misses.
func (m *MissBreakdown) TotalMisses() uint64 {
	var t uint64
	for c := 0; c < int(NumClasses); c++ {
		for b := 0; b < int(NumBands); b++ {
			t += m.Misses[c][b]
		}
	}
	return t
}

// BandCycles sums one band across classes.
func (m *MissBreakdown) BandCycles(b Band) uint64 {
	var t uint64
	for c := 0; c < int(NumClasses); c++ {
		t += m.Cycles[c][b]
	}
	return t
}

// MPKI is misses per kilo-operation (the paper calibrates per
// kilo-instruction; memory ops are our instruction stream).
func (m *MissBreakdown) MPKI() float64 {
	if m.Ops == 0 {
		return 0
	}
	return 1000 * float64(m.TotalMisses()) / float64(m.Ops)
}

// Render prints the Fig. 11-style table.
func (m *MissBreakdown) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %12s\n", "", BandLow, BandMed, BandHigh)
	for c := OpClass(0); c < NumClasses; c++ {
		fmt.Fprintf(&b, "%-8s %12d %12d %12d\n", c,
			m.Cycles[c][BandLow], m.Cycles[c][BandMed], m.Cycles[c][BandHigh])
	}
	return b.String()
}

// Run is one experiment datapoint.
type Run struct {
	Name   string
	Config string
	Time   sim.Time
	Miss   MissBreakdown
}

// Series is a named collection of runs (one benchmark suite, one
// configuration sweep).
type Series struct {
	Runs []Run
}

// Add appends a run.
func (s *Series) Add(r Run) { s.Runs = append(s.Runs, r) }

// GeoMeanTime returns the geometric mean execution time, the aggregation
// Figs. 9/10 use per suite.
func (s *Series) GeoMeanTime() float64 {
	if len(s.Runs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, r := range s.Runs {
		logSum += math.Log(float64(r.Time))
	}
	return math.Exp(logSum / float64(len(s.Runs)))
}
