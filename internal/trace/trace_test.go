package trace_test

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/sim"
	"c3/internal/trace"
)

func sendEv(t sim.Time, ty msg.Type, addr mem.LineAddr, src, dst msg.NodeID, serial uint64) trace.Event {
	return trace.Event{Kind: trace.KSend, Time: t, Node: src, Addr: addr,
		MsgType: ty, VNet: msg.VReq, Src: src, Dst: dst, Serial: serial}
}

func deliverEv(t sim.Time, ty msg.Type, addr mem.LineAddr, src, dst msg.NodeID, serial uint64) trace.Event {
	return trace.Event{Kind: trace.KDeliver, Time: t, Node: dst, Addr: addr,
		MsgType: ty, VNet: msg.VRsp, Src: src, Dst: dst, Serial: serial}
}

// TestRingOverflow: while the ring grows toward its capacity and after
// it wraps, any number of emits leaves the last min(n, capacity) events
// retained in order and every older one counted as dropped.
func TestRingOverflow(t *testing.T) {
	const capacity = 4
	for n := 0; n <= 3*capacity+1; n++ {
		r := trace.NewRing(capacity)
		for i := 0; i < n; i++ {
			r.Emit(trace.Event{Kind: trace.KState, Time: sim.Time(i), Addr: mem.LineAddr(i * 64)})
		}
		kept := min(n, capacity)
		if r.Len() != kept {
			t.Fatalf("n=%d: Len = %d, want %d", n, r.Len(), kept)
		}
		if want := uint64(n - kept); r.Dropped() != want {
			t.Errorf("n=%d: Dropped = %d, want %d", n, r.Dropped(), want)
		}
		evs := r.Events()
		if len(evs) != kept {
			t.Fatalf("n=%d: %d events, want %d", n, len(evs), kept)
		}
		for i, ev := range evs {
			if want := sim.Time(n - kept + i); ev.Time != want {
				t.Errorf("n=%d: event %d at t=%d, want %d (oldest evicted first)", n, i, ev.Time, want)
			}
		}
	}
}

func TestRingHistory(t *testing.T) {
	r := trace.NewRing(16)
	r.Emit(sendEv(1, msg.GetS, 0x40, 3, 2, 1))
	r.Emit(sendEv(2, msg.GetM, 0x80, 4, 2, 2))
	r.Emit(deliverEv(9, msg.DataS, 0x40, 2, 3, 3))
	hist := r.History(0x40)
	if len(hist) != 2 {
		t.Fatalf("History(0x40) = %d events, want 2", len(hist))
	}
	if hist[0].MsgType != msg.GetS || hist[1].MsgType != msg.DataS {
		t.Errorf("history = %v/%v, want GetS/DataS", hist[0].MsgType, hist[1].MsgType)
	}
}

// TestChromeJSON checks that the streamed output is valid Chrome
// trace-event JSON: parseable, one thread_name metadata record per
// node, and message spans carrying send->deliver flight time.
func TestChromeJSON(t *testing.T) {
	var buf strings.Builder
	c := trace.NewChrome(&buf)
	tr := trace.New(c)
	tr.Name(2, "C3[0]")
	tr.Name(3, "L1[0.0]")
	c.Namer = tr.Label

	tr.Emit(sendEv(0, msg.GetS, 0x40, 3, 2, 1))
	tr.Emit(deliverEv(4000, msg.GetS, 0x40, 3, 2, 1)) // 2 us flight
	tr.State(4100, 2, 0x40, "I/I", "S/S", "grant DataS")
	tr.State(4150, 3, 0x40, "Pend", "S", "DataS")
	tr.Retire(4200, 3, 0x40, "LD miss")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var recs []map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &recs); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}

	names := map[float64]string{}
	var span map[string]any
	instants := 0
	for _, r := range recs {
		switch r["ph"] {
		case "M":
			args := r["args"].(map[string]any)
			names[r["tid"].(float64)] = args["name"].(string)
		case "X":
			span = r
		case "i":
			instants++
		}
	}
	if names[2] != "C3[0]" || names[3] != "L1[0.0]" {
		t.Errorf("track names = %v, want registered labels", names)
	}
	if span == nil {
		t.Fatal("no complete (X) event for the delivered message")
	}
	if ts := span["ts"].(float64); ts != 0 {
		t.Errorf("span ts = %v, want 0 (send time)", ts)
	}
	if dur := span["dur"].(float64); dur != 2.0 {
		t.Errorf("span dur = %v us, want 2.0 (4000 cycles at 2 GHz)", dur)
	}
	if tid := span["tid"].(float64); tid != 2 {
		t.Errorf("span on track %v, want destination track 2", tid)
	}
	if instants != 3 {
		t.Errorf("instant events = %d, want 3 (two states + retire)", instants)
	}
}

func TestChromeEmpty(t *testing.T) {
	var buf strings.Builder
	c := trace.NewChrome(&buf)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []any
	if err := json.Unmarshal([]byte(buf.String()), &recs); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(recs) != 0 {
		t.Errorf("empty trace has %d records", len(recs))
	}
}

func TestRegistryRender(t *testing.T) {
	r := trace.NewRegistry()
	var reqs uint64 = 41
	r.Counter("c3.0.local_reqs", func() uint64 { return reqs })
	r.Gauge("run.mpki", func() float64 { return 1.5 })
	h := trace.NewLatencyHist([]uint64{100, 200})
	h.Observe(sim.NS(50))
	h.Observe(sim.NS(150))
	h.Observe(sim.NS(500))
	r.Histogram("miss_latency", h)

	var text strings.Builder
	r.RenderText(&text)
	for _, want := range []string{"c3.0.local_reqs", "41", "run.mpki", "miss_latency", "<=100ns"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("RenderText missing %q:\n%s", want, text.String())
		}
	}

	var js strings.Builder
	if err := r.RenderJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Histos   map[string]struct {
			Unit   string   `json:"unit"`
			Bounds []uint64 `json:"bounds"`
			Counts []uint64 `json:"counts"`
			Count  uint64   `json:"count"`
			Sum    uint64   `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("RenderJSON is not valid JSON: %v\n%s", err, js.String())
	}
	if doc.Counters["c3.0.local_reqs"] != 41 {
		t.Errorf("counter = %d, want 41", doc.Counters["c3.0.local_reqs"])
	}
	if doc.Gauges["run.mpki"] != 1.5 {
		t.Errorf("gauge = %v, want 1.5", doc.Gauges["run.mpki"])
	}
	mh := doc.Histos["miss_latency"]
	if mh.Count != 3 || mh.Sum != 700 {
		t.Errorf("histogram count/sum = %d/%d, want 3/700 ns", mh.Count, mh.Sum)
	}
	if len(mh.Counts) != 3 || mh.Counts[0] != 1 || mh.Counts[1] != 1 || mh.Counts[2] != 1 {
		t.Errorf("histogram counts = %v, want [1 1 1]", mh.Counts)
	}

	// Counters are read lazily: a render after the fact sees new values.
	reqs = 42
	var again strings.Builder
	r.RenderText(&again)
	if !strings.Contains(again.String(), "42") {
		t.Errorf("second render did not re-read the counter:\n%s", again.String())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := trace.NewRegistry()
	r.Counter("x", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate Counter did not panic")
		}
	}()
	r.Counter("x", func() uint64 { return 0 })
}

func TestLatencyHist(t *testing.T) {
	h := trace.NewLatencyHist(nil) // DefaultMissBounds
	for i := 0; i < 10; i++ {
		h.Observe(sim.NS(60)) // <=75ns bucket
	}
	h.Observe(sim.NS(350)) // <=400ns bucket
	if h.N != 11 {
		t.Fatalf("N = %d, want 11", h.N)
	}
	if q := h.QuantileNS(0.5); q != 75 {
		t.Errorf("p50 = %d, want 75", q)
	}
	if q := h.QuantileNS(0.99); q != 400 {
		t.Errorf("p99 = %d, want 400", q)
	}
	wantMean := (10*60.0 + 350.0) / 11
	if m := h.MeanNS(); m < wantMean-0.01 || m > wantMean+0.01 {
		t.Errorf("mean = %v, want %v", m, wantMean)
	}
}

type fakeDumper string

func (f fakeDumper) DumpState(w io.Writer) { io.WriteString(w, string(f)+"\n") }

// TestWatchdogFires pins the hang-report contract: a request with no
// matching grant trips the watchdog after MaxAge, and the report carries
// the line's message history plus every registered controller dump.
func TestWatchdogFires(t *testing.T) {
	k := &sim.Kernel{}
	tr := trace.New()
	w := trace.NewWatchdog(k, 100, 0)
	tr.SetWatchdog(w)
	var report string
	w.OnHang = func(r string) { report = r }
	w.AddDumper("fakeCtl", fakeDumper("fake-internal-state"))
	tr.Name(3, "L1[hung]")

	m := &msg.Msg{Type: msg.GetM, Addr: 0x80, Src: 3, Dst: 2, VNet: msg.VReq, Serial: 7}
	tr.MsgSend(k.Now(), m)
	k.Run(nil)

	if !w.Fired() {
		t.Fatal("watchdog did not fire on an unanswered GetM")
	}
	if report != w.Report() {
		t.Error("OnHang report differs from Report()")
	}
	for _, want := range []string{"0x80", "GetM", "L1[hung]", "fakeCtl", "fake-internal-state"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestWatchdogDisarms pins the no-false-positive contract: a completed
// transaction cancels the timer, so the kernel drains and nothing fires.
func TestWatchdogDisarms(t *testing.T) {
	k := &sim.Kernel{}
	tr := trace.New()
	w := trace.NewWatchdog(k, 100, 0)
	tr.SetWatchdog(w)
	w.OnHang = func(r string) { t.Errorf("unexpected hang:\n%s", r) }

	req := &msg.Msg{Type: msg.GetM, Addr: 0x80, Src: 3, Dst: 2, VNet: msg.VReq, Serial: 1}
	rsp := &msg.Msg{Type: msg.DataM, Addr: 0x80, Src: 2, Dst: 3, VNet: msg.VRsp, Serial: 2}
	tr.MsgSend(k.Now(), req)
	k.Schedule(40, func() { tr.MsgDeliver(k.Now(), rsp) })
	k.Run(nil)

	if w.Fired() {
		t.Fatal("watchdog fired on a completed transaction")
	}
	if k.Pending() != 0 {
		t.Errorf("%d events still queued: the watchdog timer kept the kernel alive", k.Pending())
	}
}

// TestWatchdogNestedOpens: two outstanding requests to one line need two
// completions before the line is considered idle.
func TestWatchdogNestedOpens(t *testing.T) {
	k := &sim.Kernel{}
	tr := trace.New()
	w := trace.NewWatchdog(k, 100, 0)
	tr.SetWatchdog(w)
	var fired bool
	w.OnHang = func(string) { fired = true }

	send := func(serial uint64) {
		tr.MsgSend(k.Now(), &msg.Msg{Type: msg.GetS, Addr: 0x40, Src: 3, Dst: 2, VNet: msg.VReq, Serial: serial})
	}
	close := func(serial uint64) {
		tr.MsgDeliver(k.Now(), &msg.Msg{Type: msg.DataS, Addr: 0x40, Src: 2, Dst: 3, VNet: msg.VRsp, Serial: serial})
	}
	send(1)
	k.Schedule(10, func() { send(2) })
	k.Schedule(50, func() { close(3) })
	// Only one of two transactions closed: the line must still be
	// tracked, and the watchdog must fire at 0+MaxAge.
	k.Run(nil)
	if !fired {
		t.Fatal("watchdog missed the second (still-open) transaction")
	}

	// Same shape, both closed: no fire.
	k2 := &sim.Kernel{}
	tr2 := trace.New()
	w2 := trace.NewWatchdog(k2, 100, 0)
	tr2.SetWatchdog(w2)
	w2.OnHang = func(r string) { t.Errorf("unexpected hang:\n%s", r) }
	tr2.MsgSend(k2.Now(), &msg.Msg{Type: msg.GetS, Addr: 0x40, Src: 3, Dst: 2, VNet: msg.VReq, Serial: 1})
	k2.Schedule(10, func() {
		tr2.MsgSend(k2.Now(), &msg.Msg{Type: msg.GetS, Addr: 0x40, Src: 4, Dst: 2, VNet: msg.VReq, Serial: 2})
	})
	k2.Schedule(50, func() {
		tr2.MsgDeliver(k2.Now(), &msg.Msg{Type: msg.DataS, Addr: 0x40, Src: 2, Dst: 3, VNet: msg.VRsp, Serial: 3})
	})
	k2.Schedule(60, func() {
		tr2.MsgDeliver(k2.Now(), &msg.Msg{Type: msg.DataS, Addr: 0x40, Src: 2, Dst: 4, VNet: msg.VRsp, Serial: 4})
	})
	k2.Run(nil)
	if w2.Fired() {
		t.Fatal("watchdog fired after both transactions completed")
	}
}

// TestWatchdogStructuredReport pins the classify-and-report path the
// soak harness depends on: OnHangReport receives the structured report
// (taking precedence over OnHang and the panic default), and a Classify
// hook refines the class from the "protocol-hang" fallback.
func TestWatchdogStructuredReport(t *testing.T) {
	k := &sim.Kernel{}
	tr := trace.New()
	w := trace.NewWatchdog(k, 100, 0)
	tr.SetWatchdog(w)

	var got trace.HangReport
	w.OnHangReport = func(r trace.HangReport) { got = r }
	w.OnHang = func(string) { t.Error("OnHang called despite OnHangReport being set") }
	w.Classify = func(line mem.LineAddr) string {
		if line == 0x80 {
			return "link-retry"
		}
		return ""
	}

	tr.MsgSend(k.Now(), &msg.Msg{Type: msg.GetM, Addr: 0x80, Src: 3, Dst: 2, VNet: msg.VReq, Serial: 1})
	k.Run(nil)

	if !w.Fired() {
		t.Fatal("watchdog did not fire")
	}
	if got.Line != 0x80 || got.Opens != 1 || got.Closes != 0 {
		t.Fatalf("report bookkeeping wrong: %+v", got)
	}
	if got.Class != "link-retry" {
		t.Fatalf("Class = %q, want link-retry from the Classify hook", got.Class)
	}
	if got.Text != w.Report() || !strings.Contains(got.Text, "[link-retry]") {
		t.Fatalf("report text missing or unclassified:\n%s", got.Text)
	}

	// An empty Classify answer falls back to the default class.
	k2 := &sim.Kernel{}
	tr2 := trace.New()
	w2 := trace.NewWatchdog(k2, 100, 0)
	tr2.SetWatchdog(w2)
	var got2 trace.HangReport
	w2.OnHangReport = func(r trace.HangReport) { got2 = r }
	w2.Classify = func(mem.LineAddr) string { return "" }
	tr2.MsgSend(k2.Now(), &msg.Msg{Type: msg.GetM, Addr: 0x40, Src: 3, Dst: 2, VNet: msg.VReq, Serial: 1})
	k2.Run(nil)
	if got2.Class != "protocol-hang" {
		t.Fatalf("Class = %q, want protocol-hang fallback", got2.Class)
	}
}

// TestWatchdogFiresOnLowestLine: when several open lines fall silent
// together, the report names the lowest-addressed one on every run,
// whatever order the lines opened in.
func TestWatchdogFiresOnLowestLine(t *testing.T) {
	for run := 0; run < 50; run++ {
		k := &sim.Kernel{}
		tr := trace.New()
		w := trace.NewWatchdog(k, 100, 0)
		tr.SetWatchdog(w)
		var got trace.HangReport
		w.OnHangReport = func(r trace.HangReport) { got = r }
		for i, addr := range []mem.LineAddr{0x100, 0x40, 0x140, 0x80, 0xc0} {
			tr.MsgSend(k.Now(), &msg.Msg{Type: msg.GetM, Addr: addr, Src: 3, Dst: 2, VNet: msg.VReq, Serial: uint64(i + 1)})
		}
		k.Run(nil)
		if got.Line != 0x40 {
			t.Fatalf("run %d: watchdog named line %v, want the lowest stale line 0x40", run, got.Line)
		}
	}
}

// disabledTracer is package-level so the compiler cannot fold the nil
// checks away: this is exactly the shape of every hook site.
var disabledTracer *trace.Tracer

// TestTraceDisabledZeroAlloc pins design constraint #1: the disabled
// path — the nil-guarded hook every controller carries — performs zero
// allocations.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	m := &msg.Msg{Type: msg.GetS, Addr: 0x40, Src: 1, Dst: 2, VNet: msg.VReq}
	allocs := testing.AllocsPerRun(1000, func() {
		if disabledTracer != nil {
			disabledTracer.MsgSend(0, m)
		}
		if disabledTracer != nil {
			disabledTracer.State(0, 1, m.Addr, "I", "M", "grant")
		}
		if disabledTracer != nil {
			disabledTracer.Retire(0, -1, m.Addr, "LD")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled trace hooks allocate %.1f times per op, want 0", allocs)
	}
}

// BenchmarkTraceDisabled measures the disabled hook path (run with
// -benchtime 1x in CI just to assert 0 allocs/op; longer runs measure
// the branch cost, which is what the <2% end-to-end budget rests on).
func BenchmarkTraceDisabled(b *testing.B) {
	m := &msg.Msg{Type: msg.GetS, Addr: 0x40, Src: 1, Dst: 2, VNet: msg.VReq}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if disabledTracer != nil {
			disabledTracer.MsgSend(sim.Time(i), m)
		}
		if disabledTracer != nil {
			disabledTracer.State(sim.Time(i), 1, m.Addr, "I", "M", "grant")
		}
	}
}

// BenchmarkTraceRing is the enabled-path contrast: every event through
// the tracer into a ring buffer.
func BenchmarkTraceRing(b *testing.B) {
	tr := trace.New(trace.NewRing(4096))
	m := &msg.Msg{Type: msg.GetS, Addr: 0x40, Src: 1, Dst: 2, VNet: msg.VReq}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.MsgSend(sim.Time(i), m)
	}
}
