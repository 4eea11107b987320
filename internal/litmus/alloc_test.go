package litmus

import (
	"testing"

	"c3/internal/cpu"
)

// raceDetector is set by race_test.go in -race builds, whose sync.Pool
// drops a share of what is put back on purpose.
var raceDetector bool

// iterationAllocCeiling caps what one MP iteration under crash-noisy
// with the hang watchdog armed may allocate, litmus.Run's own set-up
// included: the measured 335 plus 5%.
const iterationAllocCeiling = 351

// TestIterationAllocCeiling is the counted gate on a soak iteration: one
// MP iteration on one worker under crash-noisy (a host crash over 2%
// drop and duplication) with HangWatch, the machine the soak builds and
// releases per iteration. Allocation counts repeat exactly where wall
// time does not, so a regression in machine assembly, the reliable
// shim or the watchdog shows here first.
func TestIterationAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops recycled rings and slabs at random")
	}
	tc, _ := ByName("MP")
	plan, _ := PlanByName("crash-noisy")
	cfg := RunnerConfig{
		Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
		MCMs:  [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Iters: 1, Sync: SyncFull, BaseSeed: 1, Workers: 1,
		Faults: &plan.Plan, HangWatch: true,
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		var res *Result
		if res, err = Run(tc, cfg); err == nil && res.Crashed != 1 {
			t.Fatalf("crash-noisy iteration did not crash a host: %+v", res)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one MP iteration under crash-noisy: %.0f allocations (ceiling %d)", allocs, iterationAllocCeiling)
	if allocs > iterationAllocCeiling {
		t.Fatalf("one MP iteration under crash-noisy allocates %.0f objects, ceiling %d", allocs, iterationAllocCeiling)
	}
}
