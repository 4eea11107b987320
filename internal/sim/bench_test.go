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

// BenchmarkKernelMixed keeps about 50 events pending with the delay mix
// measured on the timed workloads: about two thirds one cycle ahead (the
// next-cycle lane), the rest 2-255 cycles out (the heap).
func BenchmarkKernelMixed(b *testing.B) {
	var k Kernel
	rng := rand.New(rand.NewPCG(7, 7))
	delays := make([]Time, 1024)
	for i := range delays {
		if rng.IntN(3) < 2 {
			delays[i] = 1
		} else {
			delays[i] = Time(2 + rng.IntN(254))
		}
	}
	fn := func(any) {}
	for i := 0; i < 50; i++ {
		k.ScheduleArg(k.Now()+delays[i], fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleArg(k.Now()+delays[i&1023], fn, nil)
		k.Step()
	}
}
