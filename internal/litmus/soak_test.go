package litmus

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"c3/internal/faults"
)

// TestFaultRecoveryConverges is the headline acceptance scenario: with
// >= 1% drop + duplication on the cross-cluster links, the full Table IV
// suite must still pass — the retry shim absorbs every fault, no
// forbidden outcome, no poison, no wedge.
func TestFaultRecoveryConverges(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 8
	}
	plan := faults.Plan{Rates: faults.Rates{Drop: 0.01, Dup: 0.01}}
	for _, name := range TableIVNames() {
		tc, _ := ByName(name)
		t.Run(name, func(t *testing.T) {
			p := plan
			res, err := Run(tc, RunnerConfig{
				Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
				Iters: iters, Sync: SyncFull, BaseSeed: 7,
				Faults: &p, HangWatch: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Forbidden != 0 {
				t.Fatalf("forbidden outcome under 1%% faults (%d/%d): %s",
					res.Forbidden, res.Iters, res.ForbiddenExample)
			}
			if res.Poisoned != 0 {
				t.Fatalf("%d iterations poisoned under a recoverable plan", res.Poisoned)
			}
		})
	}
}

// TestPerMessageClassFaults drops, duplicates and delays each message
// class in isolation (via per-link rates targeting the hub direction) on
// a 2-host litmus run and requires convergence.
func TestPerMessageClassFaults(t *testing.T) {
	iters := 20
	if testing.Short() {
		iters = 6
	}
	tc, _ := ByName("MP")
	cases := []struct {
		name  string
		rates faults.Rates
	}{
		{"drop", faults.Rates{Drop: 0.05}},
		{"dup", faults.Rates{Dup: 0.1}},
		{"delay", faults.Rates{Delay: 0.2, DelayMax: 400}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := faults.Plan{Rates: c.rates}
			res, err := Run(tc, RunnerConfig{
				Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
				Iters: iters, Sync: SyncFull, BaseSeed: 11,
				Faults: &p, HangWatch: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Forbidden != 0 || res.Poisoned != 0 {
				t.Fatalf("forbidden=%d poisoned=%d under %s faults",
					res.Forbidden, res.Poisoned, c.name)
			}
		})
	}
}

// TestBlackoutPoisons is the degradation acceptance scenario: a 100%-drop
// stall window longer than the whole retry budget must produce poisoned
// iterations — detected, reported, never a silent wrong value or a hang.
func TestBlackoutPoisons(t *testing.T) {
	tc, _ := ByName("MP")
	p, ok := PlanByName("blackout")
	if !ok {
		t.Fatal("blackout preset missing")
	}
	plan := p.Plan
	res, err := Run(tc, RunnerConfig{
		Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
		Iters: 5, Sync: SyncFull, BaseSeed: 3,
		Faults: &plan, HangWatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Poisoned == 0 {
		t.Fatal("blackout produced no poisoned iterations")
	}
	if res.Forbidden != 0 {
		t.Fatalf("blackout produced a silent forbidden outcome: %s", res.ForbiddenExample)
	}
	if res.Hangs == 0 || res.HangClasses["link-retry"] == 0 {
		t.Fatalf("blackout hangs unclassified: hangs=%d classes=%v", res.Hangs, res.HangClasses)
	}
}

// TestSoakReportIdenticalForAnyWorkerCount: the c3soak contract — the
// rendered report is byte-identical for every -j. Run under -race in CI.
func TestSoakReportIdenticalForAnyWorkerCount(t *testing.T) {
	iters := 6
	if testing.Short() {
		iters = 3
	}
	cfg := SoakConfig{
		Tests: []string{"MP", "SB"},
		Plans: []NamedPlan{
			{Name: "light", Plan: faults.Plan{Rates: faults.Rates{Drop: 0.01, Dup: 0.01}}},
			{Name: "blackout", Plan: faults.Plan{Rates: faults.Rates{Stalls: []faults.Window{{From: 0, To: 60_000}}}}},
		},
		Seeds: []int64{1, 2},
		Iters: iters,
	}
	var base string
	for _, workers := range []int{1, 2, 7} {
		cfg.Workers = workers
		rep, err := RunSoak(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := rep.Render()
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("workers=%d report differs:\n--- serial ---\n%s--- j=%d ---\n%s",
				workers, base, workers, got)
		}
	}
	// The sweep includes blackout rows, so the verdict must be "degraded
	// but detected", and OK() must still hold.
	rep, _ := RunSoak(cfg)
	if !rep.OK() {
		t.Fatalf("soak contract failed:\n%s", rep.Render())
	}
	foundDegraded := false
	for _, r := range rep.Runs {
		if r.Plan == "blackout" && r.Poisoned > 0 {
			foundDegraded = true
		}
	}
	if !foundDegraded {
		t.Fatalf("blackout rows show no detected degradation:\n%s", rep.Render())
	}
}

// TestSoakUnknownTest: configuration mistakes are errors, not report rows.
func TestSoakUnknownTest(t *testing.T) {
	if _, err := RunSoak(SoakConfig{Tests: []string{"nope"}, Iters: 1}); err == nil {
		t.Fatal("unknown test accepted")
	}
}

// TestCampaignsRejectRepeatedRow: a test, plan or seed named twice
// would run one campaign twice and checkpoint it twice under one row
// key, so the expansion every sweep runs through rejects it, naming the
// repeated row, and RunSoak runs nothing.
func TestCampaignsRejectRepeatedRow(t *testing.T) {
	light, _ := PlanByName("light")
	raw, err := ResolvePlan("drop=0.01,dup=0.01")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  SoakConfig
		want string
	}{
		{"seeds", SoakConfig{Tests: []string{"MP"}, Plans: []NamedPlan{light}, Seeds: []int64{1, 1}}, "MP/light/seed1"},
		{"tests", SoakConfig{Tests: []string{"MP", "SB", "MP"}, Plans: []NamedPlan{light}}, "MP/light/seed1"},
		{"plans", SoakConfig{Tests: []string{"MP"}, Plans: []NamedPlan{light, light}, Seeds: []int64{2}}, "MP/light/seed2"},
	} {
		_, err := Campaigns(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want+" appears twice") {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
		tc.cfg.Iters = 1
		if rep, err := RunSoak(tc.cfg); err == nil {
			t.Errorf("%s: RunSoak ran a repeated row:\n%s", tc.name, rep.Render())
		}
	}
	// The same plan under two names is two rows, each run once.
	camps, err := Campaigns(SoakConfig{Tests: []string{"MP"}, Plans: []NamedPlan{light, raw}})
	if err != nil || len(camps) != 2 {
		t.Fatalf("light and its raw spec: %d campaigns, err %v; want 2", len(camps), err)
	}
}

// TestResolveFaults: the -faults and -crash flags resolve to one plan —
// nil when both are empty, a preset or spec with every ';'-separated
// crash layered on top — and a bad spec is an error naming its flag.
func TestResolveFaults(t *testing.T) {
	if plan, err := ResolveFaults("", ""); plan != nil || err != nil {
		t.Fatalf("no flags: plan %+v, err %v; want a perfect fabric (nil)", plan, err)
	}
	plan, err := ResolveFaults("light", "1@2500; 1@9000:12000")
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Plan{Rates: faults.Rates{Drop: 0.01, Dup: 0.01},
		Crashes: []faults.Crash{{Host: 1, At: 2500}, {Host: 1, At: 9000, Rejoin: 12000}}}
	if !reflect.DeepEqual(*plan, want) {
		t.Fatalf("light + two crashes resolved to %+v, want %+v", *plan, want)
	}
	plan, err = ResolveFaults("", "1@2500")
	if want := (faults.Plan{Crashes: []faults.Crash{{Host: 1, At: 2500}}}); err != nil || !reflect.DeepEqual(*plan, want) {
		t.Fatalf("crash alone: plan %+v, err %v; want %+v", plan, err, want)
	}
	for _, tc := range []struct{ faults, crash, flag string }{
		{"drop=banana", "", "-faults"},
		{"", "bogus", "-crash"},
		{"light", "1@2500;1@x", "-crash"},
		{"", "1@2500,drop=0.5", "-crash"}, // a fault key in -crash is not dropped silently
	} {
		if _, err := ResolveFaults(tc.faults, tc.crash); err == nil || !strings.HasPrefix(err.Error(), tc.flag+": ") {
			t.Errorf("-faults %q -crash %q: err %v, want one naming %s", tc.faults, tc.crash, err, tc.flag)
		}
	}
	// A bad -crash entry is quoted as typed, not as the plan spec it
	// would make ("crash=..."), in the flag's own host@tick syntax.
	for _, tc := range []struct{ crash, entry, want string }{
		{"bogus", "bogus", "want host@tick or host@tick:rejoin"},
		{"1@2500; 1@x", "1@x", "want positive crash tick"},
		{"1@9000:100", "1@9000:100", "want rejoin tick > crash tick"},
	} {
		_, err := ResolveFaults("", tc.crash)
		if err == nil {
			t.Fatalf("-crash %q: no error", tc.crash)
		}
		if want := fmt.Sprintf("-crash: %q: %s", tc.entry, tc.want); err.Error() != want || strings.Contains(err.Error(), "crash=") {
			t.Errorf("-crash %q: err %q, want %q", tc.crash, err, want)
		}
	}
}

// FuzzResolveFaults: no (-faults, -crash) pair panics, and every plan
// ResolveFaults accepts renders (String, the plan's report key) to a
// spec that resolves back to a structurally equal plan. Seeded from the
// preset names and, copied from the fault-plan parser's tests, valid
// and invalid specs, each paired with a -crash value.
func FuzzResolveFaults(f *testing.F) {
	specs := []string{
		"drop=0.01,dup=0.01",
		"drop=0.05,dup=0.05,delay=0.1,delaymax=200",
		"drop=1,stall=0:60000",
		"drop=0.02,stall=2000:12000,retries=4,seed=9",
		"crash=1@2500",
		"drop=0.02,crash=1@2500,crash=2@3000:9000",
		"none",
		"",
		"drop=NaN",
		"stall=10:5",
		"crash=1@100:50",
		"warp=0.5",
	}
	crashes := []string{"", "1@2500", "1@2500:40000", "1@2500; 2@9000:12000", "bogus", "1@0", "1@x"}
	for _, p := range append(DefaultPlans(), CrashPlans()...) {
		f.Add(p.Name, "")
		f.Add(p.Name, "1@3000")
	}
	for i, s := range specs {
		f.Add(s, crashes[i%len(crashes)])
	}
	f.Fuzz(func(t *testing.T, faultSpec, crash string) {
		p, err := ResolveFaults(faultSpec, crash)
		if err != nil || p == nil {
			return
		}
		q, err := ResolveFaults(p.String(), "")
		if err != nil {
			t.Fatalf("-faults %q -crash %q resolved to %q, which does not resolve: %v", faultSpec, crash, p.String(), err)
		}
		if !reflect.DeepEqual(*p, *q) {
			t.Fatalf("-faults %q -crash %q resolved to %+v, but its String() %q resolves to %+v", faultSpec, crash, *p, p.String(), *q)
		}
	})
}
