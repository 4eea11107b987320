package main

import (
	"runtime"
	"time"
)

// epoch anchors the monotonic clock the spans read.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanNS and kidNS are the tracing's own cost, calibrated once on empty
// spans: spanNS is what an empty span measures, kidNS what an empty
// child adds to its parent's self time. Self times are corrected by
// both.
var spanNS, kidNS = func() (float64, float64) {
	const n = 200_000
	s := newSpans(2)
	for i := 0; i < n; i++ {
		p := s.begin()
		s.end(0, s.begin())
		s.end(1, p)
	}
	for i := 0; i < n; i++ {
		s.end(0, s.begin())
	}
	span := float64(s.self[0]) / float64(s.calls[0])
	return span, float64(s.self[1])/n - span
}()

// spans times nested calls from outside: each open span accumulates the
// time of its children, so a span's self time is its duration minus
// theirs. Spans are keyed by a small integer kind.
type spans struct {
	open  []frame
	self  []int64 // self ns per kind
	calls []int64 // closed spans per kind
	kids  []int64 // direct children per kind
}

type frame struct {
	child int64
	kids  int64
}

func newSpans(kinds int) *spans {
	return &spans{self: make([]int64, kinds), calls: make([]int64, kinds), kids: make([]int64, kinds)}
}

func (s *spans) begin() int64 {
	s.open = append(s.open, frame{})
	return now()
}

// end closes the innermost span, begun at t0, as kind k.
func (s *spans) end(k int, t0 int64) {
	d := now() - t0
	n := len(s.open) - 1
	f := s.open[n]
	s.open = s.open[:n]
	s.self[k] += d - f.child
	s.calls[k]++
	s.kids[k] += f.kids
	if n > 0 {
		s.open[n-1].child += d
		s.open[n-1].kids++
	}
}

// selfNS is kind k's total self time with the tracing's cost taken out.
func (s *spans) selfNS(k int) float64 {
	return float64(s.self[k]) - spanNS*float64(s.calls[k]) - kidNS*float64(s.kids[k])
}

// perCall is kind k's mean corrected self time per span.
func (s *spans) perCall(k int) float64 {
	if s.calls[k] == 0 {
		return 0
	}
	return s.selfNS(k) / float64(s.calls[k])
}

// allocs snapshots the Go runtime's allocation counters.
type allocs struct{ objs, bytes, gcs uint64 }

func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)}
}

// allocRows records the runtime deltas since a, per unit.
func allocRows(rows map[string]float64, a allocs, units int) {
	b := readAllocs()
	u := float64(units)
	rows["alloc.objs_per_unit"] = float64(b.objs-a.objs) / u
	rows["alloc.bytes_per_unit"] = float64(b.bytes-a.bytes) / u
	rows["alloc.gc_cycles"] = float64(b.gcs-a.gcs) / u
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
