package litmus

import (
	"testing"

	"c3/internal/faults"
	"c3/internal/sim"
)

func crashPlan(at int64) faults.Plan {
	var p faults.Plan
	p.CrashHost(1, sim.Time(at))
	return p
}

// TestCrashLitmusConverges is the acceptance scenario: a litmus campaign
// with a mid-run host crash terminates without the watchdog firing, the
// surviving host converges, crashed iterations are excluded from
// forbidden-outcome checks, and lines the dead host solely owned surface
// as deterministic poisoned reads at the collector.
func TestCrashLitmusConverges(t *testing.T) {
	for _, global := range []string{"cxl", "hmesi"} {
		t.Run(global, func(t *testing.T) {
			tc, _ := ByName("MP")
			plan := crashPlan(2500)
			res, err := Run(tc, RunnerConfig{
				Locals: [2]string{"mesi", "mesi"}, Global: global,
				Iters: 20, Sync: SyncFull, BaseSeed: 1,
				Faults: &plan, HangWatch: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Crashed == 0 {
				t.Fatal("crash tick 2500 never landed mid-run")
			}
			if res.Forbidden != 0 {
				t.Fatalf("crashed campaign reported forbidden outcomes: %s", res.ForbiddenExample)
			}
			if res.Hangs != 0 {
				t.Fatalf("watchdog fired %d times (%v); reclamation must unblock every waiter",
					res.Hangs, res.HangClasses)
			}
			if res.Poisoned == 0 {
				t.Fatal("no iteration recorded a crash-poisoned line")
			}
			if len(res.PoisonedVars) == 0 {
				t.Fatal("the collector never read a poisoned litmus variable")
			}
		})
	}
}

// TestCrashRejoinLitmusConverges: the same campaign with a rejoin window
// must also converge; the rejoined host comes back cold and idle.
func TestCrashRejoinLitmusConverges(t *testing.T) {
	tc, _ := ByName("SB")
	plan := crashPlan(2500)
	plan.Crashes[0].Rejoin = 40_000
	res, err := Run(tc, RunnerConfig{
		Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
		Iters: 10, Sync: SyncFull, BaseSeed: 1,
		Faults: &plan, HangWatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed == 0 || res.Forbidden != 0 || res.Hangs != 0 {
		t.Fatalf("crashed=%d forbidden=%d hangs=%d", res.Crashed, res.Forbidden, res.Hangs)
	}
}

// TestCrashCampaignDeterministic: the crash plan's poisoned-variable
// histogram and outcome set are identical across worker counts — the
// reclamation walk's sorted order keeps grants deterministic.
func TestCrashCampaignDeterministic(t *testing.T) {
	run := func(workers int) *Result {
		tc, _ := ByName("MP")
		plan := crashPlan(2500)
		res, err := Run(tc, RunnerConfig{
			Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
			Iters: 12, Sync: SyncFull, BaseSeed: 1, Workers: workers,
			Faults: &plan, HangWatch: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.Crashed != base.Crashed || got.Poisoned != base.Poisoned {
			t.Fatalf("workers=%d: crashed/poisoned %d/%d, serial %d/%d",
				w, got.Crashed, got.Poisoned, base.Crashed, base.Poisoned)
		}
		if len(got.Outcomes) != len(base.Outcomes) {
			t.Fatalf("workers=%d: %d outcomes, serial %d", w, len(got.Outcomes), len(base.Outcomes))
		}
		for k, v := range base.Outcomes {
			if got.Outcomes[k] != v {
				t.Fatalf("workers=%d: outcome %q = %d, serial %d", w, k, got.Outcomes[k], v)
			}
		}
		for k, v := range base.PoisonedVars {
			if got.PoisonedVars[k] != v {
				t.Fatalf("workers=%d: poisoned var %q = %d, serial %d", w, k, got.PoisonedVars[k], v)
			}
		}
	}
}

// TestCrashSoakLateAbortedRequestor sweeps seeds where the dead host's
// read is still open at the DCOH, NAKed but awaiting a surviving snoop
// response, when the isolation check runs. That is no reference to the
// dead host, so every row must pass.
func TestCrashSoakLateAbortedRequestor(t *testing.T) {
	rep, err := RunSoak(SoakConfig{
		Tests:   []string{"R", "SB"},
		Plans:   CrashPlans(),
		Seeds:   []int64{5, 9},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("crash soak broke the contract:\n%s", rep.Render())
	}
}

// TestCrashSoakPresets: the crash presets resolve by name, sweep cleanly,
// and render byte-identically for any worker count (the c3soak contract
// extended to host crashes).
func TestCrashSoakPresets(t *testing.T) {
	for _, name := range []string{"crash", "crash-rejoin", "crash-noisy"} {
		if _, ok := PlanByName(name); !ok {
			t.Fatalf("crash preset %q missing", name)
		}
	}
	cfg := SoakConfig{
		Tests: []string{"MP"},
		Plans: CrashPlans(),
		Seeds: []int64{1},
		Iters: 5,
	}
	var base string
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		rep, err := RunSoak(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.OK() {
			t.Fatalf("crash soak broke the contract:\n%s", rep.Render())
		}
		got := rep.Render()
		if base == "" {
			base = got
		} else if got != base {
			t.Fatalf("crash soak report differs by worker count:\n--- j=1 ---\n%s--- j=%d ---\n%s",
				base, workers, got)
		}
	}
	// Every row must actually have crashed iterations.
	rep, _ := RunSoak(cfg)
	for _, r := range rep.Runs {
		if r.Crashed == 0 {
			t.Fatalf("row %s/%s saw no crashes:\n%s", r.Test, r.Plan, rep.Render())
		}
	}
}
