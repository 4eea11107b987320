package sim

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkKernelSchedule pins the freelist's steady state: after warmup,
// a schedule+fire round trip must not allocate (the event comes from the
// freelist and the static callback carries no captures). CI runs this at
// -benchtime=1x as a smoke test; run with -benchmem to see allocs/op.
func BenchmarkKernelSchedule(b *testing.B) {
	var k Kernel
	fn := func() {}
	// Warm the freelist and the heap's backing array.
	for i := 0; i < 64; i++ {
		k.Schedule(Time(i), fn)
	}
	k.RunLimit(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now()+1, fn)
		k.Step()
	}
}

// BenchmarkKernelChurn exercises the cancel/reschedule pattern the
// network and watchdog produce: a standing population of events with a
// rotating cancel + re-schedule, firing every few rounds. Steady state
// must stay at 0 allocs/op.
func BenchmarkKernelChurn(b *testing.B) {
	var k Kernel
	fn := func() {}
	var hs [64]Handle
	for i := range hs {
		hs[i] = k.Schedule(Time(i+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % 64
		k.Cancel(hs[j])
		hs[j] = k.Schedule(k.Now()+Time(j)+1, fn)
		if i%4 == 3 {
			k.Step()
		}
	}
}

// BenchmarkKernelScheduleArg measures the closure-free scheduling variant
// used by the network delivery hot path.
func BenchmarkKernelScheduleArg(b *testing.B) {
	var k Kernel
	fn := func(any) {}
	arg := new(int)
	for i := 0; i < 64; i++ {
		k.ScheduleArg(Time(i), fn, arg)
	}
	k.RunLimit(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleArg(k.Now()+1, fn, arg)
		k.Step()
	}
}

// contendedDelays is the delay mix of the events a sim-contended run
// (histogram on MESI-CXL-MESI and MESI-MESI-MESI, four cores per
// cluster) schedules, in events per thousand by delay range: next-cycle
// pumps and hit replies, controller, cache and DRAM latencies, and the
// cross-cluster link. None is due 256 or more cycles out.
var contendedDelays = []struct {
	lo, hi   Time
	permille int
}{
	{1, 1, 571}, {2, 2, 113}, {4, 4, 49}, {12, 12, 40}, {13, 13, 67},
	{14, 22, 11}, {23, 23, 18}, {24, 63, 17}, {64, 141, 9},
	{142, 142, 51}, {143, 166, 52}, {167, 255, 2},
}

// BenchmarkKernelMixed keeps 46 events pending (sim.pending_mean on
// sim-contended) and schedules with contendedDelays: one event
// scheduled and one fired per op. The c3bench kernel-mixed micro
// mirrors it.
func BenchmarkKernelMixed(b *testing.B) {
	var k Kernel
	rng := rand.New(rand.NewPCG(7, 7))
	delays := make([]Time, 1024)
	for i := range delays {
		r := rng.IntN(1000)
		for _, d := range contendedDelays {
			if r -= d.permille; r < 0 {
				delays[i] = d.lo + Time(rng.IntN(int(d.hi-d.lo)+1))
				break
			}
		}
	}
	fn := func(any) {}
	for i := 0; i < 46; i++ {
		k.ScheduleArg(k.Now()+delays[i], fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleArg(k.Now()+delays[i&1023], fn, nil)
		k.Step()
	}
}
