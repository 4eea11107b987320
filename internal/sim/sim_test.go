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
// and Step with the delay mix of a timed run (0, 1 — the next-cycle
// lane — and 2..300 cycles), including callbacks that schedule, and
// double and stale cancels of fired and cancelled events. A reference
// list sorted by (when, seq) must fire in the same order, Pending must
// be exact after every call, and Clone must panic exactly while an
// event (lane or heap) is live.
func TestRandomizedAgainstReference(t *testing.T) {
	type refEv struct {
		when Time
		seq  uint64
		id   int
		lane bool // scheduled one cycle ahead
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		var k Kernel
		var live []refEv // reference queue, unsorted
		var handles []Handle
		state := map[int]string{} // id -> live | fired | cancelled
		var fired []int
		var seq uint64
		var sched func()
		onFire := func(id int) {
			fired = append(fired, id)
			if rng.IntN(3) == 0 {
				sched() // callbacks schedule too, reusing the freed slot
			}
		}
		argFn := func(a any) { onFire(*a.(*int)) }
		sched = func() {
			var d Time
			switch r := rng.IntN(10); {
			case r < 2:
				d = 0
			case r < 7:
				d = 1
			default:
				d = Time(2 + rng.IntN(299))
			}
			id := len(handles)
			var h Handle
			if rng.IntN(2) == 0 {
				h = k.Schedule(k.Now()+d, func() { onFire(id) })
			} else {
				v := id
				h = k.ScheduleArg(k.Now()+d, argFn, &v)
			}
			handles = append(handles, h)
			live = append(live, refEv{when: k.Now() + d, seq: seq, id: id, lane: d == 1})
			seq++
			state[id] = "live"
		}
		checkPending := func(op string) {
			t.Helper()
			if k.Pending() != len(live) {
				t.Fatalf("seed %d: after %s Pending() = %d, reference %d", seed, op, k.Pending(), len(live))
			}
		}
		for step := 0; step < 4000; step++ {
			switch r := rng.IntN(10); {
			case r < 4:
				sched()
				checkPending("schedule")
			case r < 6 && len(handles) > 0:
				// Any handle: live, fired or already cancelled (stale and
				// double cancels must be no-ops).
				id := rng.IntN(len(handles))
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
				checkPending("cancel")
			case r < 9:
				if len(live) == 0 {
					if k.Step() {
						t.Fatalf("seed %d: Step fired with an empty reference", seed)
					}
					continue
				}
				sort.Slice(live, func(i, j int) bool {
					if live[i].when != live[j].when {
						return live[i].when < live[j].when
					}
					return live[i].seq < live[j].seq
				})
				want := live[0]
				live = live[1:]
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
				laneLive := false
				for _, e := range live {
					laneLive = laneLive || e.lane
				}
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					c := k.Clone()
					if c.Now() != k.Now() || c.Pending() != 0 {
						t.Fatalf("seed %d: clone at %d with %d pending", seed, c.Now(), c.Pending())
					}
					return false
				}()
				if panicked != (len(live) > 0) || (laneLive && !panicked) {
					t.Fatalf("seed %d: Clone panicked=%v with %d live events (lane live %v)", seed, panicked, len(live), laneLive)
				}
			}
		}
		k.Run(nil)
		if k.Pending() != 0 || k.Step() {
			t.Fatalf("seed %d: kernel not drained", seed)
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
