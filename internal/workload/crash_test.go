package workload

import (
	"strings"
	"testing"

	"c3/internal/faults"
)

// TestCrashRejectedOnBarrierKernel: a host crash halts the crashed
// cluster's cores for good, so a kernel with barriers could never pass
// its next one. RunOn must refuse the plan before building a machine,
// naming the kernel and the reason, with or without a rejoin; a lock
// kernel under the same crash runs to completion.
func TestCrashRejectedOnBarrierKernel(t *testing.T) {
	fft, _ := ByName("fft")
	if fft.BarrierEvery == 0 {
		t.Fatal("fft has no barriers; pick a barrier kernel")
	}
	var crash, rejoin faults.Plan
	crash.CrashHost(1, 2500)
	rejoin.CrashHost(1, 2500)
	rejoin.Crashes[0].Rejoin = 40_000
	for _, plan := range []faults.Plan{crash, rejoin} {
		// The event limit only keeps a failure of this test short.
		_, sys, err := RunOn(RunConfig{Spec: fft, OpsScale: 0.05, Seed: 1, Faults: &plan, EventLimit: 2_000_000})
		if err == nil || sys != nil {
			t.Fatalf("fft under %s: err %v, system %v; want a refusal before building", plan.String(), err, sys)
		}
		for _, want := range []string{"fft", "barrier"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("fft under %s: error %q does not name %q", plan.String(), err, want)
			}
		}
	}
	if err := CheckFaults(fft, &faults.Plan{Rates: faults.Rates{Drop: 0.01}}); err != nil {
		t.Errorf("fft under line noise: %v; only crashes stop a barrier kernel", err)
	}

	radiosity, _ := ByName("radiosity")
	if radiosity.BarrierEvery != 0 || radiosity.LockEvery == 0 {
		t.Fatal("radiosity is no longer a lock-only kernel")
	}
	run, sys, err := RunOn(RunConfig{Spec: radiosity, OpsScale: 0.05, Seed: 1, Faults: &crash})
	if err != nil {
		t.Fatalf("radiosity under %s: %v", crash.String(), err)
	}
	defer sys.Release()
	if run.Miss.Ops == 0 || len(sys.CrashedClusters()) != 1 {
		t.Fatalf("radiosity under %s: %d ops, crashed clusters %v", crash.String(), run.Miss.Ops, sys.CrashedClusters())
	}
}
