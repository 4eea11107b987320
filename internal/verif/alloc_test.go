package verif

import (
	"testing"

	"c3/internal/cpu"
	"c3/internal/litmus"
)

// checkAllocCeiling caps what one IRIW exploration under TSO/TSO may
// allocate, Check's own set-up included: the measured 1,199,200 plus
// 5%.
const checkAllocCeiling = 1_259_200

// TestCheckAllocCeiling is the counted gate on the checker's successor
// cost: one exhaustive IRIW exploration with TSO cores in both clusters,
// the corpus's largest state space at that machine. A successor copies
// only the kernel, the fabric and the one group its delivery reaches,
// so a change that copies more per successor, or hashes with
// allocations, shows here in a count that repeats where wall time does
// not. The ownership check is a test-time cost and is off while the
// count is taken.
func TestCheckAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops recycled slabs and tables at random")
	}
	mcfg := wmoCXL(t, "IRIW", litmus.SyncFull)
	mcfg.MCMs = [2]cpu.MCM{cpu.TSO, cpu.TSO}
	withoutOwnershipCheck(t)
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		if _, e := Check(mcfg, CheckerConfig{}); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one IRIW exploration under TSO/TSO: %.0f allocations (ceiling %d)", allocs, checkAllocCeiling)
	if allocs > checkAllocCeiling {
		t.Fatalf("one IRIW exploration under TSO/TSO allocates %.0f objects, ceiling %d", allocs, checkAllocCeiling)
	}
}
