package faults

import (
	"reflect"
	"testing"

	"c3/internal/msg"
	"c3/internal/sim"
)

func TestPlanEnabled(t *testing.T) {
	var zero Plan
	if zero.Enabled() {
		t.Fatal("zero plan must be disabled")
	}
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Fatal("nil plan must be disabled")
	}
	cases := []Plan{
		{Rates: Rates{Drop: 0.01}},
		{Rates: Rates{Dup: 0.5}},
		{Rates: Rates{Delay: 1}},
		{Rates: Rates{Stalls: []Window{{From: 0, To: 10}}}},
		{PerLink: []LinkRates{{Src: 1, Dst: 2, Rates: Rates{Drop: 1}}}},
		{Crashes: []Crash{{Host: 1, At: 2500}}},
	}
	for i, p := range cases {
		if !p.Enabled() {
			t.Fatalf("case %d: plan %s should be enabled", i, p.String())
		}
	}
	// Seed or retries alone inject nothing.
	idle := Plan{Seed: 7, MaxRetries: 3}
	if idle.Enabled() {
		t.Fatal("seed/retries-only plan must be disabled")
	}
}

func TestCrashHostChaining(t *testing.T) {
	var p Plan
	p.CrashHost(1, 2500).CrashHost(2, 3000)
	if len(p.Crashes) != 2 {
		t.Fatalf("Crashes = %v, want 2 entries", p.Crashes)
	}
	if p.Crashes[0] != (Crash{Host: 1, At: 2500}) || p.Crashes[1] != (Crash{Host: 2, At: 3000}) {
		t.Fatalf("Crashes = %+v", p.Crashes)
	}
	if !p.Enabled() {
		t.Fatal("crash-only plan must be enabled")
	}
	if got := p.String(); got != "crash=1@2500,crash=2@3000" {
		t.Fatalf("String() = %q", got)
	}
}

func TestRetriesDefault(t *testing.T) {
	var p Plan
	if got := p.Retries(); got != DefaultMaxRetries {
		t.Fatalf("default retries = %d, want %d", got, DefaultMaxRetries)
	}
	p.MaxRetries = 3
	if got := p.Retries(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
}

// roundTripSpecs are valid plan specs; badSpecs must be rejected. Both
// seed FuzzParsePlan.
var roundTripSpecs = []string{
	"drop=0.01,dup=0.01",
	"drop=0.05,dup=0.05,delay=0.1,delaymax=200",
	"drop=1,stall=0:60000",
	"drop=0.02,stall=2000:12000,retries=4,seed=9",
	"crash=1@2500",
	"crash=1@2500:40000",
	"drop=0.02,crash=1@2500,crash=2@3000:9000",
	"none",
	"",
}

var badSpecs = []string{
	"drop",            // no value
	"drop=2",          // out of [0,1]
	"drop=-0.1",       // negative
	"drop=NaN",        // not a probability
	"delay=nan",       // not a probability
	"dup=x",           // not a number
	"stall=5",         // no colon
	"stall=9:9",       // empty window
	"stall=10:5",      // inverted
	"retries=0",       // must be positive
	"retries=-1",      // negative
	"warp=0.5",        // unknown key
	"delaymax=-3",     // negative cycles
	"crash=1",         // no @tick
	"crash=x@100",     // bad host
	"crash=-1@100",    // negative host
	"crash=1@0",       // crash tick must be positive
	"crash=1@100:100", // rejoin must follow crash
	"crash=1@100:50",  // rejoin before crash
}

func TestParsePlanRoundTrip(t *testing.T) {
	for _, s := range roundTripSpecs {
		p, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		// String() re-renders in the same grammar; reparsing must give the
		// same plan (the report-key contract).
		p2, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("reparse ParsePlan(%q).String()=%q: %v", s, p.String(), err)
		}
		if p.String() != p2.String() {
			t.Fatalf("round trip diverged: %q -> %q", p.String(), p2.String())
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, s := range badSpecs {
		if _, err := ParsePlan(s); err == nil {
			t.Fatalf("ParsePlan(%q) accepted, want error", s)
		}
	}
}

// FuzzParsePlan: every spec ParsePlan accepts must reparse from its
// String() rendering to a structurally equal plan. Comparing String()
// forms alone cannot catch a value String() drops: a NaN rate renders
// as nothing, so "drop=NaN" once round-tripped as "none" == "none".
func FuzzParsePlan(f *testing.F) {
	for _, s := range append(append([]string(nil), roundTripSpecs...), badSpecs...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q).String() = %q does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParsePlan(%q) = %+v, but its String() %q parses to %+v", spec, p, p.String(), q)
		}
	})
}

// fates drains n decisions from one directed link of a fresh injector.
func fates(p Plan, src, dst msg.NodeID, n int) []Fate {
	in := NewInjector(p)
	s := in.Stream(src, dst, msg.VReq)
	out := make([]Fate, n)
	for i := range out {
		out[i] = in.Decide(s, sim.Time(i), false)
	}
	return out
}

func TestDeterministicPerSeed(t *testing.T) {
	p := Plan{Seed: 42, Rates: Rates{Drop: 0.2, Dup: 0.2, Delay: 0.2}}
	a := fates(p, 1, 2, 2000)
	b := fates(p, 1, 2, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	p.Seed = 43
	c := fates(p, 1, 2, 2000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fate streams")
	}
}

func TestPerLinkStreamsIndependent(t *testing.T) {
	// Interleaving traffic on a second link must not perturb the first
	// link's fate stream — the property that makes campaign results
	// independent of cross-link event interleaving.
	p := Plan{Seed: 7, Rates: Rates{Drop: 0.3, Dup: 0.3}}
	solo := fates(p, 1, 2, 500)

	in := NewInjector(p)
	s12, s34, s21 := in.Stream(1, 2, msg.VReq), in.Stream(3, 4, msg.VReq), in.Stream(2, 1, msg.VReq)
	var mixed []Fate
	for i := 0; i < 500; i++ {
		mixed = append(mixed, in.Decide(s12, sim.Time(i), false))
		in.Decide(s34, sim.Time(i), false) // noise on another link
		in.Decide(s21, sim.Time(i), false) // and on the reverse link
	}
	for i := range solo {
		if solo[i] != mixed[i] {
			t.Fatalf("link 1->2 stream perturbed by other links at decision %d", i)
		}
	}
}

func TestDropRateBand(t *testing.T) {
	const n = 20000
	p := Plan{Seed: 1, Rates: Rates{Drop: 0.1}}
	in := NewInjector(p)
	s := in.Stream(1, 2, msg.VReq)
	drops := 0
	for i := 0; i < n; i++ {
		if in.Decide(s, sim.Time(i), false).Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("drop rate %.4f outside [0.08, 0.12] band for 10%% plan", rate)
	}
	if in.Stats.Drops != uint64(drops) || in.Stats.Decisions != n {
		t.Fatalf("stats mismatch: %+v vs drops=%d n=%d", in.Stats, drops, n)
	}
}

func TestStallWindow(t *testing.T) {
	p := Plan{Seed: 1, Rates: Rates{Stalls: []Window{{From: 100, To: 200}}}}
	in := NewInjector(p)
	s := in.Stream(1, 2, msg.VReq)
	for _, now := range []sim.Time{100, 150, 199} {
		if f := in.Decide(s, now, false); !f.Drop {
			t.Fatalf("traversal at %d inside stall window survived", now)
		}
	}
	for _, now := range []sim.Time{0, 99, 200, 1000} {
		if f := in.Decide(s, now, false); f.Drop {
			t.Fatalf("traversal at %d outside stall window dropped", now)
		}
	}
	if in.Stats.StallDrops != 3 {
		t.Fatalf("StallDrops = %d, want 3", in.Stats.StallDrops)
	}
	if in.Stats.Drops != 0 {
		t.Fatalf("stall drops leaked into Drops: %d", in.Stats.Drops)
	}
}

func TestPerLinkOverride(t *testing.T) {
	// Only the overridden link drops; the default rates are clean.
	p := Plan{Seed: 1, PerLink: []LinkRates{{Src: 1, Dst: 2, Rates: Rates{Drop: 1}}}}
	in := NewInjector(p)
	if f := in.Decide(in.Stream(1, 2, msg.VReq), 0, false); !f.Drop {
		t.Fatal("overridden link did not drop at rate 1")
	}
	if f := in.Decide(in.Stream(2, 1, msg.VReq), 0, false); f.Drop {
		t.Fatal("reverse link inherited the override")
	}
	if f := in.Decide(in.Stream(3, 4, msg.VReq), 0, false); f.Drop {
		t.Fatal("unrelated link inherited the override")
	}

	// msg.None wildcards an endpoint.
	wp := Plan{Seed: 1, PerLink: []LinkRates{{Src: msg.None, Dst: 2, Rates: Rates{Drop: 1}}}}
	win := NewInjector(wp)
	if f := win.Decide(win.Stream(9, 2, msg.VReq), 0, false); !f.Drop {
		t.Fatal("wildcard src did not match")
	}
	if f := win.Decide(win.Stream(2, 9, msg.VReq), 0, false); f.Drop {
		t.Fatal("wildcard matched the wrong direction")
	}
}

func TestDelaySpikeBounds(t *testing.T) {
	p := Plan{Seed: 3, Rates: Rates{Delay: 1, DelayMax: 50}}
	in := NewInjector(p)
	s := in.Stream(1, 2, msg.VReq)
	seen := false
	for i := 0; i < 1000; i++ {
		f := in.Decide(s, sim.Time(i), false)
		if f.Delay < 1 || f.Delay > 50 {
			t.Fatalf("delay %d outside [1, 50]", f.Delay)
		}
		if f.Delay > 1 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("delay spikes never varied")
	}
	if in.Stats.Delays != 1000 {
		t.Fatalf("Delays = %d, want 1000", in.Stats.Delays)
	}
}

func TestDecideAckAccounting(t *testing.T) {
	p := Plan{Seed: 5, Rates: Rates{Drop: 0.5}}
	in := NewInjector(p)
	s := in.Stream(2, 1, msg.VReq)
	for i := 0; i < 1000; i++ {
		f := in.Decide(s, sim.Time(i), true)
		if f.Dup {
			t.Fatal("acks must never duplicate")
		}
	}
	if in.Stats.Acks+in.Stats.AckDrops != 1000 {
		t.Fatalf("ack accounting leaked: acks=%d drops=%d", in.Stats.Acks, in.Stats.AckDrops)
	}
	if in.Stats.AckDrops == 0 || in.Stats.Acks == 0 {
		t.Fatalf("50%% plan produced one-sided ack stats: %+v", in.Stats)
	}
	if in.Stats.Drops != 0 || in.Stats.Decisions != 0 {
		t.Fatalf("ack rolls polluted payload counters: %+v", in.Stats)
	}
}

func TestPoisonBookkeeping(t *testing.T) {
	in := NewInjector(Plan{Rates: Rates{Drop: 1}})
	if in.Poisoned(0x40) {
		t.Fatal("fresh injector reports poison")
	}
	in.RecordPoison(0x80)
	in.RecordPoison(0x40)
	in.RecordPoison(0x40) // idempotent line set, cumulative counter
	if !in.Poisoned(0x40) || !in.Poisoned(0x80) {
		t.Fatal("recorded poison not visible")
	}
	lines := in.PoisonedLines()
	if len(lines) != 2 || lines[0] != 0x40 || lines[1] != 0x80 {
		t.Fatalf("PoisonedLines = %v, want sorted [40 80]", lines)
	}
	if in.Stats.Poisoned != 3 {
		t.Fatalf("Poisoned counter = %d, want 3", in.Stats.Poisoned)
	}
}
