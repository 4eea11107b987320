package verif

import (
	"errors"
	"math"
	"runtime/debug"
	"testing"
	"time"

	"c3/internal/litmus"
)

// TestCheckerMemShedEquivalence pins the degradation contract: under an
// impossible heap budget the checker sheds its way down to
// replay-from-root — and the exploration result (states, terminals,
// outcomes, depth) is identical to an unconstrained run. Degradation
// trades Builds for memory, never coverage.
func TestCheckerMemShedEquivalence(t *testing.T) {
	// The unsynced MP space is wide enough for the frontier to carry real
	// snapshot weight (the full-sync space is under 200 states).
	mcfg := mpCXL(t, litmus.SyncNone)
	base, err := Check(mcfg, CheckerConfig{MaxStates: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	if base.MemSheds != 0 {
		t.Fatalf("unconstrained run shed %d times", base.MemSheds)
	}
	if base.SnapshotBudgetEnd != 4096 {
		t.Fatalf("unconstrained run ended with budget %d, want the 4096 default", base.SnapshotBudgetEnd)
	}

	// 1 byte: every heap sample is over budget, so the checker sheds at
	// each sampling stride until the budget bottoms out at zero.
	shed, err := Check(mcfg, CheckerConfig{MaxStates: 3_000, memBudget: 1, memSampleEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	if shed.MemSheds == 0 {
		t.Fatal("impossible memory budget triggered no shedding")
	}
	if shed.SnapshotBudgetEnd != 0 {
		t.Fatalf("budget ended at %d, want 0 (full replay-from-root degradation)", shed.SnapshotBudgetEnd)
	}
	if shed.Builds <= base.Builds {
		t.Fatalf("shedding did not shift cost to replays: %d builds vs %d unconstrained",
			shed.Builds, base.Builds)
	}
	reportsEqual(t, "mem-shed", base, shed)
}

// TestMemBudgetFollowsRuntimeLimit pins where the soft heap budget
// comes from: the runtime's memory limit, which GOMEMLIMIT sets for
// c3check. With no limit the budget is 0 and the heap is never sampled;
// with limit L the checker sheds above 0.8·L, and Check reads the limit
// from the process itself.
func TestMemBudgetFollowsRuntimeLimit(t *testing.T) {
	if got := softMemBudget(math.MaxInt64); got != 0 {
		t.Fatalf("no runtime limit: soft budget %d, want 0 (never sample the heap)", got)
	}
	for _, limit := range []int64{16 << 20, 1 << 30, 3} {
		if got, want := softMemBudget(limit), uint64(limit)*8/10; got != want {
			t.Errorf("limit %d: soft budget %d, want %d", limit, got, want)
		}
	}
	// A 1 KiB limit sits below any Go heap, so every sample is over the
	// derived budget.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 10))
	rep, err := Check(mpCXL(t, litmus.SyncFull), CheckerConfig{memSampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MemSheds == 0 {
		t.Fatal("Check did not shed under a 1 KiB runtime memory limit")
	}
}

// TestCheckerDeadline: a passed deadline aborts the exploration with a
// partial report and an error wrapping litmus.ErrTaskDeadline.
func TestCheckerDeadline(t *testing.T) {
	mcfg := mpCXL(t, litmus.SyncFull)
	rep, err := Check(mcfg, CheckerConfig{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, litmus.ErrTaskDeadline) {
		t.Fatalf("err = %v, want litmus.ErrTaskDeadline", err)
	}
	if rep == nil || rep.States == 0 {
		t.Fatalf("no partial report alongside the deadline error: %+v", rep)
	}
	full, err := Check(mcfg, CheckerConfig{MaxStates: 20_000, Deadline: time.Now().Add(time.Hour)})
	if err != nil {
		t.Fatalf("generous deadline aborted the run: %v", err)
	}
	if !full.Truncated && full.Terminals == 0 {
		t.Fatalf("exploration under a generous deadline went nowhere: %+v", full)
	}
}

// TestCheckerInterrupt: a closed interrupt channel stops the exploration
// at the next poll with a partial report and litmus.ErrInterrupted.
func TestCheckerInterrupt(t *testing.T) {
	mcfg := mpCXL(t, litmus.SyncFull)
	stop := make(chan struct{})
	close(stop)
	rep, err := Check(mcfg, CheckerConfig{Interrupt: stop})
	if !errors.Is(err, litmus.ErrInterrupted) {
		t.Fatalf("err = %v, want litmus.ErrInterrupted", err)
	}
	if rep == nil {
		t.Fatal("no partial report alongside the interrupt error")
	}
	// An open channel must not disturb the run.
	open := make(chan struct{})
	if _, err := Check(mcfg, CheckerConfig{MaxStates: 3_000, Interrupt: open}); err != nil {
		t.Fatalf("open interrupt channel aborted the run: %v", err)
	}
}
