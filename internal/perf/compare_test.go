package perf

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestMedianInt64(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{[]int64{5}, 5},
		{[]int64{3, 1, 2}, 2},
		{[]int64{10, 1000, 20}, 20}, // one noisy sample does not move the median
		{[]int64{4, 1, 3, 2}, 2},    // even count: lower middle
	}
	for _, c := range cases {
		if got := medianInt64(c.in); got != c.want {
			t.Errorf("median(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAggregate(t *testing.T) {
	got := aggregate([]Stat{
		{NsOp: 100, AllocsOp: 7, BytesOp: 640, Ops: 10},
		{NsOp: 900, AllocsOp: 5, BytesOp: 320, Ops: 10}, // GC-assist noise run: slow, but min allocs
		{NsOp: 120, AllocsOp: 6, BytesOp: 400, Ops: 10},
	})
	if got.NsOp != 120 {
		t.Errorf("NsOp = %d, want median 120", got.NsOp)
	}
	if got.AllocsOp != 5 || got.BytesOp != 320 {
		t.Errorf("allocs/bytes = %d/%d, want min 5/320", got.AllocsOp, got.BytesOp)
	}
	if got.Ops != 10 {
		t.Errorf("Ops = %d, want 10", got.Ops)
	}
}

// TestMeasure smoke-tests the harness itself on a synthetic benchmark:
// op count reaches the loop, per-op division happens, and a loop that
// allocates per op is charged about one alloc per op.
func TestMeasure(t *testing.T) {
	var sink []*int
	b := Benchmark{
		Name: "synthetic", Ops: 1000,
		Setup: func(ops int) func() {
			sink = make([]*int, ops)
			return func() {
				for i := 0; i < ops; i++ {
					sink[i] = new(int)
				}
			}
		},
	}
	s := Measure(b)
	if s.Ops != 1000 {
		t.Fatalf("Ops = %d, want 1000", s.Ops)
	}
	if s.AllocsOp < 1 || s.AllocsOp > 2 {
		t.Errorf("AllocsOp = %d, want ~1 for one new(int) per op", s.AllocsOp)
	}
	if s.NsOp < 0 {
		t.Errorf("NsOp = %d, want non-negative", s.NsOp)
	}
}

func TestCompare(t *testing.T) {
	base := &Baseline{Schema: BaselineSchema, Benchmarks: map[string]Stat{
		"kernel":  {NsOp: 100, AllocsOp: 0},
		"checker": {NsOp: 1000, AllocsOp: 50},
	}}

	// Within budget: 20% slower wall, equal allocs.
	ok := map[string]Stat{
		"kernel":  {NsOp: 120, AllocsOp: 0},
		"checker": {NsOp: 900, AllocsOp: 50},
	}
	if bad := Compare(base, ok, 0.25); len(bad) != 0 {
		t.Fatalf("in-budget run flagged: %v", bad)
	}

	// Wall regression past 25% on one, alloc regression on the other.
	bad := Compare(base, map[string]Stat{
		"kernel":  {NsOp: 130, AllocsOp: 0},
		"checker": {NsOp: 1000, AllocsOp: 51},
	}, 0.25)
	if len(bad) != 2 {
		t.Fatalf("violations = %v, want wall + alloc", bad)
	}
	joined := strings.Join(bad, "\n")
	if !strings.Contains(joined, "kernel: wall regression") || !strings.Contains(joined, "checker: alloc regression") {
		t.Fatalf("violations = %v", bad)
	}

	// Coverage both ways: missing measurement and unknown benchmark.
	bad = Compare(base, map[string]Stat{
		"kernel": {NsOp: 100},
		"new-bm": {NsOp: 1},
	}, 0.25)
	var missing, unknown bool
	for _, line := range bad {
		missing = missing || strings.Contains(line, "checker: in baseline but not measured")
		unknown = unknown || strings.Contains(line, "new-bm: measured but not in baseline")
	}
	if !missing || !unknown {
		t.Fatalf("coverage violations = %v", bad)
	}

	// Alloc slack: an alloc-heavy benchmark tolerates 0.5% jitter but a
	// zero-alloc baseline is exact.
	slackBase := &Baseline{Schema: BaselineSchema, Benchmarks: map[string]Stat{
		"kernel": {NsOp: 100, AllocsOp: 0},
		"heavy":  {NsOp: 100, AllocsOp: 100_000},
	}}
	if bad := Compare(slackBase, map[string]Stat{
		"kernel": {NsOp: 100, AllocsOp: 0},
		"heavy":  {NsOp: 100, AllocsOp: 100_400},
	}, 0.25); len(bad) != 0 {
		t.Fatalf("within-slack alloc jitter flagged: %v", bad)
	}
	bad = Compare(slackBase, map[string]Stat{
		"kernel": {NsOp: 100, AllocsOp: 1}, // one alloc on a zero-alloc path
		"heavy":  {NsOp: 100, AllocsOp: 100_600},
	}, 0.25)
	if len(bad) != 2 {
		t.Fatalf("alloc violations = %v, want exact-zero + over-slack", bad)
	}

	// Faster is never a violation.
	if bad := Compare(base, map[string]Stat{
		"kernel":  {NsOp: 10, AllocsOp: 0},
		"checker": {NsOp: 10, AllocsOp: 0},
	}, 0.25); len(bad) != 0 {
		t.Fatalf("speedup flagged: %v", bad)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_c3.json")
	b := NewBaseline(map[string]Stat{
		"kernel": {NsOp: 42, AllocsOp: 0, BytesOp: 0, Ops: 2_000_000},
	})
	if err := SaveBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != BaselineSchema || got.Benchmarks["kernel"] != b.Benchmarks["kernel"] {
		t.Fatalf("round trip lost data: %+v", got)
	}

	// A schema mismatch is an error, not a silent zero-benchmark compare.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := SaveBaseline(bad, &Baseline{Schema: "c3-bench/v999"}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(bad); err == nil {
		t.Fatal("LoadBaseline accepted an unknown schema")
	}
}

func TestSummaryRender(t *testing.T) {
	base := &Baseline{Schema: BaselineSchema, Benchmarks: map[string]Stat{
		"kernel": {NsOp: 100, AllocsOp: 0},
	}}
	out := Summary(base, map[string]Stat{
		"kernel": {NsOp: 110, AllocsOp: 0},
		"extra":  {NsOp: 5, AllocsOp: 1},
	})
	for _, want := range []string{"kernel", "+10.0%", "extra", "NEW"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestBenchmarksWellFormed pins the suite shape the committed baseline
// covers, without paying for a full measurement in unit tests.
func TestBenchmarksWellFormed(t *testing.T) {
	want := map[string]bool{"kernel": true, "kernel-mixed": true, "network-send": true, "core-l1-hit": true, "checker-expand": true, "checker-reduced": true, "clone-snapshot": true, "system-build": true, "soak-inner-loop": true}
	for _, b := range Benchmarks() {
		if !want[b.Name] {
			t.Errorf("unexpected benchmark %q (update BENCH_c3.json and this test together)", b.Name)
		}
		delete(want, b.Name)
		if b.Ops < 1 || b.Setup == nil {
			t.Errorf("%s: ops=%d setup=%v", b.Name, b.Ops, b.Setup == nil)
		}
	}
	for name := range want {
		t.Errorf("missing benchmark %q", name)
	}
}
