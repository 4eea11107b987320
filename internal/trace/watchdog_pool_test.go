package trace

import (
	"strings"
	"testing"

	"c3/internal/msg"
	"c3/internal/sim"
)

// TestReleasedRingHoldsNothingOfItsRun: a watchdog's history ring goes
// back to a pool on Release and the next watchdog takes it. That
// watchdog's hang report must name only its own run's traffic: here a
// run wraps a 4-event ring with traffic on line 0x1c0 and is released,
// and the next run hangs on line 0x80. sync.Pool may drop what is put
// back (a GC, or at random under the race detector), so the pair of
// runs repeats until one reuse is seen.
func TestReleasedRingHoldsNothingOfItsRun(t *testing.T) {
	reused := false
	for try := 0; try < 32 && !reused; try++ {
		k1 := &sim.Kernel{}
		tr1 := New()
		w1 := NewWatchdog(k1, 100, 4)
		tr1.SetWatchdog(w1)
		for i := uint64(0); i < 5; i++ {
			tr1.MsgSend(k1.Now(), &msg.Msg{Type: msg.GetS, Addr: 0x1c0, Src: 5, Dst: 2, VNet: msg.VReq, Serial: 2 * i})
			tr1.MsgDeliver(k1.Now(), &msg.Msg{Type: msg.DataS, Addr: 0x1c0, Src: 2, Dst: 5, VNet: msg.VRsp, Serial: 2*i + 1})
		}
		if w1.ring.Dropped() == 0 {
			t.Fatal("the first run did not wrap its ring")
		}
		old := w1.ring
		w1.Release()

		k2 := &sim.Kernel{}
		tr2 := New()
		w2 := NewWatchdog(k2, 100, 0)
		tr2.SetWatchdog(w2)
		reused = w2.ring == old
		var report string
		w2.OnHang = func(r string) { report = r }
		tr2.MsgSend(k2.Now(), &msg.Msg{Type: msg.GetM, Addr: 0x80, Src: 3, Dst: 2, VNet: msg.VReq, Serial: 1})
		k2.Run(nil)

		if !w2.Fired() {
			t.Fatal("the second run's unanswered GetM did not trip its watchdog")
		}
		if strings.Contains(report, "0x1c0") || strings.Contains(report, "GetS") || strings.Contains(report, "DataS") {
			t.Fatalf("report of a run on line 0x80 mentions the released run's line 0x1c0:\n%s", report)
		}
		if !strings.Contains(report, "GetM") {
			t.Fatalf("report lost its own run's history:\n%s", report)
		}
		if d := tr2.DroppedEvents(); d != 0 {
			t.Fatalf("fresh run reports %d dropped events carried over from the released one", d)
		}
		w2.Release()
	}
	if !reused {
		t.Fatal("no watchdog ever took a released ring from the pool")
	}
}
