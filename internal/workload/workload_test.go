package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"c3/internal/cpu"
	"c3/internal/stats"
	"c3/internal/trace"
)

func TestSpecsWellFormed(t *testing.T) {
	specs := Specs()
	if len(specs) != 33 {
		t.Fatalf("got %d specs, want 33 (14 splash4 + 12 parsec + 7 phoenix)", len(specs))
	}
	counts := map[Suite]int{}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Error(err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
		counts[s.Suite]++
	}
	if counts[Splash4] != 14 || counts[PARSEC] != 12 || counts[Phoenix] != 7 {
		t.Fatalf("suite counts = %v", counts)
	}
	if _, ok := ByName("vips"); !ok {
		t.Error("ByName(vips) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName should reject unknown kernels")
	}
	if len(Names()) != 33 {
		t.Error("Names mismatch")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "x", Ops: 100, PrivateLines: 10, Stride: 1, HotRMW: 0.9, SharedRead: 0.5},
		{Name: "x", Ops: 0, PrivateLines: 10, Stride: 1},
		{Name: "x", Ops: 10, PrivateLines: 10, Stride: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestSourceDeterministic(t *testing.T) {
	spec, _ := ByName("barnes")
	a := NewSource(&spec, 0, 4, 42)
	b := NewSource(&spec, 0, 4, 42)
	for i := 0; i < 200; i++ {
		ia, oka := a.Next()
		ib, okb := b.Next()
		if oka != okb || ia != ib {
			t.Fatalf("divergence at op %d: %v vs %v", i, ia, ib)
		}
		if !oka {
			break
		}
		// Feed back neutral completions (no barrier/lock in first ops
		// before BarrierEvery).
		a.Complete(ia, 0)
		b.Complete(ib, 0)
	}
}

func TestAddressRegionsDisjoint(t *testing.T) {
	// Private regions of different cores, the shared region, and the hot
	// region must not overlap.
	pEnd := privateAddr(0, maxPrivEach-1)
	p1 := privateAddr(1, 0)
	if pEnd >= p1 {
		t.Fatal("private regions overlap")
	}
	if privateAddr(63, maxPrivEach-1) >= sharedAddr(0) {
		t.Fatal("private overlaps shared")
	}
	if sharedAddr(1<<14) >= hotAddr(0) {
		t.Fatal("shared overlaps hot")
	}
	if barrierGen() == barrierCount() || lockAddr(0) == barrierGen() {
		t.Fatal("sync vars collide")
	}
}

func TestRunSmallWorkload(t *testing.T) {
	spec, _ := ByName("vips")
	r, err := Run(RunConfig{
		Spec: spec, Global: "cxl", Locals: [2]string{"mesi", "mesi"},
		MCMs: [2]cpu.MCM{cpu.WMO, cpu.WMO}, CoresPerCluster: 2,
		OpsScale: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Time == 0 || r.Miss.Ops == 0 {
		t.Fatalf("empty run result: %+v", r)
	}
	if r.Miss.TotalMisses() == 0 {
		t.Fatal("working set should overflow the L1 and miss")
	}
}

func TestRunWithBarriersAndLocks(t *testing.T) {
	// Kernels with barriers (kmeans) and locks (fluidanimate) must
	// terminate — the sync state machines make real progress.
	for _, name := range []string{"kmeans", "fluidanimate", "histogram"} {
		spec, _ := ByName(name)
		r, err := Run(RunConfig{
			Spec: spec, Global: "cxl", Locals: [2]string{"mesi", "moesi"},
			MCMs: [2]cpu.MCM{cpu.TSO, cpu.WMO}, CoresPerCluster: 2,
			OpsScale: 0.3, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Time == 0 {
			t.Fatalf("%s: zero time", name)
		}
	}
}

func TestHotWorkloadsSlowerUnderCXL(t *testing.T) {
	// The Fig. 10/11 shape in miniature: histogram (hot cross-cluster
	// RMWs) must slow down more under CXL than vips (private streaming).
	ratio := func(name string) float64 {
		spec, _ := ByName(name)
		run := func(global string) stats.Run {
			r, err := Run(RunConfig{
				Spec: spec, Global: global, Locals: [2]string{"mesi", "mesi"},
				MCMs: [2]cpu.MCM{cpu.WMO, cpu.WMO}, CoresPerCluster: 2,
				OpsScale: 0.5, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		return float64(run("cxl").Time) / float64(run("hmesi").Time)
	}
	hist := ratio("histogram")
	vips := ratio("vips")
	t.Logf("CXL/baseline slowdown: histogram %.3f, vips %.3f", hist, vips)
	if hist <= vips {
		t.Fatalf("histogram (%.3f) should be more CXL-sensitive than vips (%.3f)", hist, vips)
	}
	if vips > 1.2 {
		t.Fatalf("vips should be nearly CXL-insensitive, got %.3f", vips)
	}
}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(trace.Event)

func (f sinkFunc) Emit(ev trace.Event) { f(ev) }

func TestRunWithTraceMetricsAndHistogram(t *testing.T) {
	// End-to-end observability: one traced run must feed every surface —
	// the ring sink sees all four event kinds, the Chrome sink emits
	// valid JSON, the miss histogram agrees with the Fig. 11 breakdown,
	// and the metrics registry's lazy counters read the post-run values.
	spec, _ := ByName("histogram")
	kinds := map[trace.Kind]int{}
	count := sinkFunc(func(ev trace.Event) { kinds[ev.Kind]++ })
	var buf bytes.Buffer
	chrome := trace.NewChrome(&buf)
	tr := trace.New(count, chrome)
	chrome.Namer = tr.Label
	hist := trace.NewLatencyHist(nil)
	r, sys, err := RunOn(RunConfig{
		Spec: spec, Global: "cxl", Locals: [2]string{"mesi", "moesi"},
		MCMs: [2]cpu.MCM{cpu.TSO, cpu.WMO}, CoresPerCluster: 2,
		OpsScale: 0.3, Seed: 5,
		Tracer: tr, MissHist: hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := chrome.Close(); err != nil {
		t.Fatal(err)
	}

	for _, k := range []trace.Kind{trace.KSend, trace.KDeliver, trace.KState, trace.KRetire} {
		if kinds[k] == 0 {
			t.Errorf("trace saw no %v events", k)
		}
	}
	if uint64(kinds[trace.KRetire]) != r.Miss.Ops {
		t.Errorf("retire events = %d, ops = %d", kinds[trace.KRetire], r.Miss.Ops)
	}

	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("chrome output is empty")
	}

	if hist.N != r.Miss.TotalMisses() {
		t.Errorf("histogram saw %d misses, breakdown counted %d", hist.N, r.Miss.TotalMisses())
	}

	reg := sys.Metrics()
	var out bytes.Buffer
	if err := reg.RenderJSON(&out); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if m.Counters["net.msgs.total"] == 0 {
		t.Error("net.msgs.total should be nonzero after a run")
	}
	var retired uint64
	for name, v := range m.Counters {
		if strings.HasPrefix(name, "core.") {
			retired += v
		}
	}
	if retired != r.Miss.Ops {
		t.Errorf("core.*.retired sums to %d, breakdown ops = %d", retired, r.Miss.Ops)
	}
}

func TestWatchdogCatchesStalledRun(t *testing.T) {
	// Force a "hang" by setting the watchdog age below any real
	// transaction latency: the first in-flight request trips it, and the
	// run must abort with the full diagnostic — stuck line, message
	// history, and controller DumpStates.
	spec, _ := ByName("vips")
	tr := trace.New()
	_, _, err := RunOn(RunConfig{
		Spec: spec, Global: "cxl", Locals: [2]string{"mesi", "mesi"},
		MCMs: [2]cpu.MCM{cpu.WMO, cpu.WMO}, CoresPerCluster: 2,
		OpsScale: 0.1, Seed: 9,
		Tracer: tr, WatchdogAge: 1,
	})
	if err == nil {
		t.Fatal("1-cycle watchdog should have tripped")
	}
	for _, want := range []string{
		"watchdog hang",
		"transaction hang on line",
		"message history of the hung line:",
		"controller state:",
		"-- DCOH --",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic missing %q\n%s", want, err.Error())
		}
	}
}
