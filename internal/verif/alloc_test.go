package verif

import (
	"testing"

	"c3/internal/cpu"
	"c3/internal/litmus"
)

// Allocation ceilings: each is the count measured when it was set plus
// 5%.
const (
	// checkAllocCeiling caps one IRIW exploration under TSO/TSO, Check's
	// own set-up included: the measured 435,388 plus 5%.
	checkAllocCeiling = 457_100
	// corpusAllocCeiling caps one pass over the litmus corpus on
	// MESI-CXL-MESI with Arm cores in both clusters: the measured
	// 150,136 plus 5%.
	corpusAllocCeiling = 157_600
)

// TestCheckAllocCeiling is the counted gate on the checker's successor
// cost: one exhaustive IRIW exploration with TSO cores in both clusters,
// the corpus's largest state space at that machine. A successor
// allocates its Model, the group its delivery reaches and what the
// delivery writes of the fabric, so a change that copies more per
// successor, or hashes with allocations, shows here in a count that
// repeats where wall time does not.
func TestCheckAllocCeiling(t *testing.T) {
	mcfg := wmoCXL(t, "IRIW", litmus.SyncFull)
	mcfg.MCMs = [2]cpu.MCM{cpu.TSO, cpu.TSO}
	checkAllocs(t, "one IRIW exploration under TSO/TSO", checkAllocCeiling, []ModelConfig{mcfg})
}

// TestCorpusAllocCeiling is the counted gate behind the end-to-end
// check-corpus benchmark: one exploration of every litmus test on its
// machine, MESI-CXL-MESI with Arm cores, the unit set whose pass time
// it reports.
func TestCorpusAllocCeiling(t *testing.T) {
	var mcfgs []ModelConfig
	for _, tc := range litmus.Tests() {
		mcfgs = append(mcfgs, wmoCXL(t, tc.Name, litmus.SyncFull))
	}
	checkAllocs(t, "one corpus pass on MESI-CXL-MESI, Arm/Arm", corpusAllocCeiling, mcfgs)
}

// checkAllocs fails t if exploring mcfgs, one after another, allocates
// more than ceiling objects. AllocsPerRun pins one P, so the count
// repeats to within the slabs and tables a GC takes from their pools
// (about 0.5%). The step checks are test-time costs and are off while
// the count is taken.
func checkAllocs(t *testing.T, what string, ceiling int, mcfgs []ModelConfig) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops recycled slabs and tables at random")
	}
	withoutStepChecks(t)
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		for _, mcfg := range mcfgs {
			if _, e := Check(mcfg, CheckerConfig{}); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %.0f allocations (ceiling %d)", what, allocs, ceiling)
	if allocs > float64(ceiling) {
		t.Fatalf("%s allocates %.0f objects, ceiling %d", what, allocs, ceiling)
	}
}
