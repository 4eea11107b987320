package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
)

func TestKernelZeroValueUsable(t *testing.T) {
	var k Kernel
	if k.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", k.Now())
	}
	if k.Step() {
		t.Fatal("Step on empty kernel should report false")
	}
}

func TestScheduleOrdering(t *testing.T) {
	var k Kernel
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Run(nil)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got order %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", k.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	var k Kernel
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.Run(nil)
	if !sort.IntsAreSorted(got) {
		t.Fatalf("equal-time events ran out of schedule order: %v", got)
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	var k Kernel
	var fired Time
	k.Schedule(10, func() {
		k.After(5, func() { fired = k.Now() })
	})
	k.Run(nil)
	if fired != 15 {
		t.Fatalf("nested After fired at %d, want 15", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var k Kernel
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		k.Schedule(5, func() {})
	})
	k.Run(nil)
}

func TestCancel(t *testing.T) {
	var k Kernel
	fired := false
	e := k.Schedule(10, func() { fired = true })
	k.Cancel(e)
	k.Cancel(e) // double-cancel is a no-op
	k.Run(nil)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestCancelAfterFire(t *testing.T) {
	var k Kernel
	fired := 0
	e := k.Schedule(10, func() { fired++ })
	k.Schedule(20, func() {})
	if !k.Step() {
		t.Fatal("Step should fire the first event")
	}
	// The event already ran; cancelling its handle must neither panic nor
	// disturb the remaining queue.
	k.Cancel(e)
	k.Cancel(e)
	k.Run(nil)
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	if k.Now() != 20 {
		t.Fatalf("Now() = %d, want 20 (second event must survive)", k.Now())
	}
}

func TestCancelHeadOfHeap(t *testing.T) {
	var k Kernel
	var got []int
	head := k.Schedule(1, func() { got = append(got, 1) })
	k.Schedule(2, func() { got = append(got, 2) })
	k.Schedule(3, func() { got = append(got, 3) })
	k.Cancel(head)
	if k.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", k.Pending())
	}
	k.Run(nil)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("got %v, want [2 3]", got)
	}
	if k.Now() != 3 {
		t.Fatalf("Now() = %d, want 3", k.Now())
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var k Kernel
	var got []int
	var evs []Handle
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, k.Schedule(Time(i+1), func() { got = append(got, i) }))
	}
	k.Cancel(evs[4])
	k.Cancel(evs[7])
	k.Run(nil)
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8", len(got))
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestRunUntil(t *testing.T) {
	var k Kernel
	n := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), func() { n++ })
	}
	k.Run(func() bool { return n >= 5 })
	if n != 5 {
		t.Fatalf("processed %d events, want 5", n)
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", k.Pending())
	}
}

func TestRunLimit(t *testing.T) {
	var k Kernel
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), func() {})
	}
	if k.RunLimit(3) {
		t.Fatal("RunLimit(3) should not drain 10 events")
	}
	if !k.RunLimit(0) {
		t.Fatal("RunLimit(0) should drain the queue")
	}
}

func TestRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	var k Kernel
	var got []Time
	for i := 0; i < 1000; i++ {
		t := Time(rng.IntN(500))
		k.Schedule(t, func() { got = append(got, t) })
	}
	k.Run(nil)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of time order at %d: %d after %d", i, got[i], got[i-1])
		}
	}
}

func TestNS(t *testing.T) {
	if NS(70) != 140 {
		t.Fatalf("NS(70) = %d, want 140 cycles at 2 GHz", NS(70))
	}
}

// TestStaleHandleAfterRecycle: once an event fires, its storage may be
// recycled for a later schedule; cancelling through the stale handle must
// not disturb the new event (the generation counter's whole job).
func TestStaleHandleAfterRecycle(t *testing.T) {
	var k Kernel
	firedA, firedB := false, false
	hA := k.Schedule(10, func() { firedA = true })
	if !k.Step() {
		t.Fatal("Step should fire A")
	}
	// B reuses A's freelisted event struct.
	hB := k.Schedule(20, func() { firedB = true })
	k.Cancel(hA) // stale: must be a no-op
	k.Run(nil)
	if !firedA || !firedB {
		t.Fatalf("firedA=%v firedB=%v, want both (stale cancel hit B?)", firedA, firedB)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
	_ = hB
}

// TestStaleHandleAfterCancelReuse: same as above but the slot is freed by
// Cancel rather than by firing.
func TestStaleHandleAfterCancelReuse(t *testing.T) {
	var k Kernel
	hA := k.Schedule(10, func() {})
	k.Cancel(hA)
	firedB := false
	k.Schedule(20, func() { firedB = true })
	k.Cancel(hA) // stale again
	k.Run(nil)
	if !firedB {
		t.Fatal("stale double-cancel killed the reused event")
	}
}

func TestCancelZeroHandle(t *testing.T) {
	var k Kernel
	k.Cancel(Handle{}) // must not panic
	if (Handle{}).Valid() {
		t.Fatal("zero Handle should not be Valid")
	}
	h := k.Schedule(1, func() {})
	if !h.Valid() {
		t.Fatal("scheduled Handle should be Valid")
	}
	k.Run(nil)
}

func TestScheduleArg(t *testing.T) {
	var k Kernel
	var got []int
	fn := func(a any) { got = append(got, *a.(*int)) }
	vals := []int{3, 1, 2}
	k.ScheduleArg(30, fn, &vals[0])
	k.ScheduleArg(10, fn, &vals[1])
	h := k.ScheduleArg(20, fn, &vals[2])
	k.Cancel(h)
	k.Run(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

// TestRandomizedAgainstReference drives Schedule, ScheduleArg, Cancel
// and Step with delays on both sides of the wheel/heap boundary (0, 1,
// W-1, W, W+1, 2W, about 10W, and a spread up to 300 cycles, where W is
// wheelSlots), including callbacks that schedule, double and stale
// cancels of fired and cancelled events, and cancels at the head, the
// middle and the tail of one slot's chain. Each Step must fire the
// reference queue's earliest event by (when, seq), Pending must be
// exact after every call, and Clone must panic exactly while an event
// (wheel or heap) is live. Each seed runs until the clock has wrapped the wheel
// 40 times.
func TestRandomizedAgainstReference(t *testing.T) {
	type refEv struct {
		when  Time
		seq   uint64
		id    int
		wheel bool // scheduled fewer than wheelSlots cycles ahead
	}
	delays := []Time{0, 1, wheelSlots - 1, wheelSlots, wheelSlots + 1, 2 * wheelSlots, 10*wheelSlots + 3}
	var chainCancels [3]int // head, middle, tail of a chain of three or more
	ties := 0               // fires of a heap event due when a wheel event is
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		var k Kernel
		var live []refEv // reference queue, unsorted
		var handles []Handle
		state := map[int]string{} // id -> live | fired | cancelled
		var fired []int
		var seq uint64
		var sched func(d Time)
		pickDelay := func() Time {
			switch r := rng.IntN(20); {
			case r < 3:
				return 0
			case r < 11:
				return 1
			case r < 15:
				return delays[2+rng.IntN(len(delays)-2)]
			default:
				return Time(2 + rng.IntN(299))
			}
		}
		onFire := func(id int) {
			fired = append(fired, id)
			if rng.IntN(4) == 0 {
				sched(pickDelay()) // callbacks schedule too, reusing the freed slot
			}
		}
		argFn := func(a any) { onFire(*a.(*int)) }
		sched = func(d Time) {
			id := len(handles)
			var h Handle
			if rng.IntN(2) == 0 {
				h = k.Schedule(k.Now()+d, func() { onFire(id) })
			} else {
				v := id
				h = k.ScheduleArg(k.Now()+d, argFn, &v)
			}
			handles = append(handles, h)
			live = append(live, refEv{when: k.Now() + d, seq: seq, id: id, wheel: d < wheelSlots})
			seq++
			state[id] = "live"
		}
		cancel := func(id int) {
			k.Cancel(handles[id])
			if state[id] == "live" {
				state[id] = "cancelled"
				for i, e := range live {
					if e.id == id {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
		}
		checkPending := func(op string) {
			t.Helper()
			if k.Pending() != len(live) {
				t.Fatalf("seed %d: after %s Pending() = %d, reference %d", seed, op, k.Pending(), len(live))
			}
		}
		// At least 6000 operations, and on until the clock has wrapped
		// the wheel 40 times.
		for step := 0; step < 6000 || k.Now() < 40*wheelSlots; step++ {
			if step == 200_000 {
				t.Fatalf("seed %d: the clock reached only %d in %d operations", seed, k.Now(), step)
			}
			switch r := rng.IntN(20); {
			case r < 5:
				d := pickDelay()
				sched(d)
				if rng.IntN(4) == 0 { // a burst: one slot's chain grows
					for n := rng.IntN(4); n >= 0; n-- {
						sched(d)
					}
				}
				checkPending("schedule")
			case r < 7 && len(handles) > 0:
				// Any handle: live, fired or already cancelled (stale and
				// double cancels must be no-ops).
				cancel(rng.IntN(len(handles)))
				checkPending("cancel")
			case r < 8 && len(live) > 0:
				// The head, a middle event or the tail of the chain of
				// one wheel slot: every live wheel event due when a
				// randomly chosen one is, in seq order.
				pick := live[rng.IntN(len(live))]
				if !pick.wheel {
					continue
				}
				var chain []refEv
				for _, e := range live {
					if e.wheel && e.when == pick.when {
						chain = append(chain, e)
					}
				}
				sort.Slice(chain, func(i, j int) bool { return chain[i].seq < chain[j].seq })
				pos := rng.IntN(3)
				if len(chain) >= 3 {
					chainCancels[pos]++
				}
				cancel(chain[[]int{0, len(chain) / 2, len(chain) - 1}[pos]].id)
				checkPending("chain cancel")
			case r < 19:
				if len(live) == 0 {
					if k.Step() {
						t.Fatalf("seed %d: Step fired with an empty reference", seed)
					}
					continue
				}
				m := 0
				for i, e := range live {
					if e.when < live[m].when || e.when == live[m].when && e.seq < live[m].seq {
						m = i
					}
				}
				want := live[m]
				live = append(live[:m], live[m+1:]...)
				for _, e := range live {
					if !want.wheel && e.wheel && e.when == want.when {
						ties++
						break
					}
				}
				state[want.id] = "fired"
				n := len(fired)
				if !k.Step() {
					t.Fatalf("seed %d: Step reported an empty queue, reference has %d", seed, len(live)+1)
				}
				if len(fired) <= n || fired[n] != want.id || k.Now() != want.when {
					t.Fatalf("seed %d: fired %v at %d, want event %d at %d", seed, fired[n:], k.Now(), want.id, want.when)
				}
				checkPending("step")
			default:
				wheelLive := false
				for _, e := range live {
					wheelLive = wheelLive || e.wheel
				}
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					c := k.Clone()
					if c.Now() != k.Now() || c.Pending() != 0 {
						t.Fatalf("seed %d: clone at %d with %d pending", seed, c.Now(), c.Pending())
					}
					return false
				}()
				if panicked != (len(live) > 0) || (wheelLive && !panicked) {
					t.Fatalf("seed %d: Clone panicked=%v with %d live events (wheel live %v)", seed, panicked, len(live), wheelLive)
				}
			}
		}
		k.Run(nil)
		if k.Pending() != 0 || k.Step() {
			t.Fatalf("seed %d: kernel not drained", seed)
		}
	}
	if ties == 0 {
		t.Error("no heap event fired while a wheel event was due at the same time")
	}
	for pos, n := range chainCancels {
		if n == 0 {
			t.Errorf("no cancel hit position %d (head, middle, tail) of a chain of three or more", pos)
		}
	}
}

func BenchmarkKernelScheduleStep(b *testing.B) {
	var k Kernel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now()+Time(i%64), func() {})
		k.Step()
	}
}

// TestSwapSpares: kernels that take turns on one Spares schedule from
// one free list, one heap backing and one wheel, so once warm a clone
// that runs on them allocates nothing. A cancelled event still chained
// in a drained kernel's wheel never crosses over, and a kernel with
// pending events cannot hand its storage on.
func TestSwapSpares(t *testing.T) {
	var s Spares
	fn := func() {}
	run := func(k *Kernel) {
		k.SwapSpares(&s)
		for i := 0; i < 8; i++ {
			k.After(Time(i%3+1), fn)
			k.After(Time(i%3+1)*wheelSlots, fn)
		}
		k.Run(nil)
		k.Cancel(k.After(1, fn))            // chained, dead, in the drained wheel
		k.Cancel(k.After(wheelSlots-1, fn)) // at the far end of the wheel
		k.SwapSpares(&s)
		if k.free != nil || cap(k.events) != 0 || k.w != nil {
			t.Fatalf("after handing the spares back: kernel free %d, heap cap %d, wheel %v",
				len(k.free), cap(k.events), k.w != nil)
		}
		if s.w == nil || s.w.occ != [len(s.w.occ)]uint64{} || s.w.tails != [wheelSlots]*event{} {
			t.Fatal("the spares' wheel still chains an event of the drained kernel")
		}
	}
	var root Kernel
	run(&root)
	var c Kernel
	if allocs := testing.AllocsPerRun(10, func() {
		c = root.Clone()
		run(&c)
	}); allocs != 0 {
		t.Fatalf("a clone running on the shared spares allocated %.0f objects per run", allocs)
	}
	root.After(1, fn)
	defer func() {
		if recover() == nil {
			t.Fatal("SwapSpares on a kernel with a pending event did not panic")
		}
	}()
	root.SwapSpares(&s)
}

// TestReleaseEmptiesTheWheel: a kernel released mid-run, with an armed
// watchdog-style timer in the heap and retries, a cancelled event and
// next-cycle events in its wheel, hands the pool an empty wheel:
// nothing of the released run stays reachable from it, its Handles
// cancel as no-ops, and the next kernel that takes the wheel fires only
// its own events. sync.Pool may drop what is put back (a GC, or at
// random under the race detector), so the pair of runs repeats until
// one reuse is seen.
func TestReleaseEmptiesTheWheel(t *testing.T) {
	reused := false
	for try := 0; try < 32 && !reused; try++ {
		var k1 Kernel
		ran := 0
		stale := func() { t.Fatal("an event of the released kernel fired") }
		k1.After(3, func() { ran++ })
		k1.Step()
		var hs []Handle
		hs = append(hs,
			k1.After(10*wheelSlots, stale), // the watchdog's next check
			k1.After(150, stale),           // a retry timer
			k1.After(1, stale), k1.After(1, stale), k1.After(0, stale),
			k1.After(wheelSlots-1, stale))
		k1.Cancel(k1.After(1, stale))
		if ran != 1 || k1.Pending() != len(hs) {
			t.Fatalf("before release: ran %d, pending %d", ran, k1.Pending())
		}
		w := k1.w
		k1.Release()
		if k1.Pending() != 0 || k1.w != nil || k1.Step() {
			t.Fatalf("released kernel: pending %d, holds a wheel %v", k1.Pending(), k1.w != nil)
		}
		if w.occ != [len(w.occ)]uint64{} || w.tails != [wheelSlots]*event{} {
			t.Fatal("the released wheel still chains events of its run")
		}
		for _, h := range hs {
			k1.Cancel(h)
		}

		var k2 Kernel
		var got []Time
		for _, d := range []Time{1, 1, 2, wheelSlots - 1, wheelSlots} {
			k2.After(d, func() { got = append(got, k2.Now()) })
		}
		reused = k2.w == w
		k2.Run(nil)
		if len(got) != 5 || got[0] != 1 || got[1] != 1 || got[2] != 2 || got[3] != wheelSlots-1 || got[4] != wheelSlots {
			t.Fatalf("the next kernel fired at %v", got)
		}
		k2.Release()
	}
	if !reused {
		t.Fatal("no kernel ever took a released wheel from the pool")
	}
}
