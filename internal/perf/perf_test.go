package perf

import "testing"

// TestCoreL1HitAllocationFree pins the instruction path every simulated
// op takes — fetch, issue, L1 hit, reply, store-buffer drain, retire and
// the kernel events between them — at zero heap allocations per
// instruction once the core's lines are resident.
func TestCoreL1HitAllocationFree(t *testing.T) {
	run := coreL1Hit()
	const perRun = 256
	if allocs := testing.AllocsPerRun(50, func() { run(perRun) }); allocs != 0 {
		t.Fatalf("core/L1 hit path allocates %.2f objects per %d instructions, want 0", allocs, perRun)
	}
}
