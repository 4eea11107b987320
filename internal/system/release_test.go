package system

import (
	"testing"

	"c3/internal/cpu"
	"c3/internal/faults"
	"c3/internal/trace"
)

// TestReleaseMidRunHandsOnAnEmptyWheel: a machine released mid-run, with
// its hang watchdog armed and link retries pending on a lossy fabric,
// leaves its kernel empty, and the machine built next on the same
// goroutine (which takes the released kernel's wheel from the pool)
// runs exactly as it does after a machine that drained: no event of
// the released run fires in it.
func TestReleaseMidRunHandsOnAnEmptyWheel(t *testing.T) {
	build := func(seed int64) *System {
		cfg := twoClusters("mesi", "mesi", "cxl", 1, seed)
		cfg.Faults = &faults.Plan{Seed: uint64(seed), Rates: faults.Rates{Drop: 0.2}}
		cfg.Tracer = trace.New()
		cfg.WatchdogAge = 5000
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for cl := 0; cl < 2; cl++ {
			var prog []cpu.Instr
			for n := 0; n < 20; n++ {
				prog = append(prog, cpu.Instr{Kind: cpu.RMWAdd, Addr: addr(n % 3), Val: 1, Reg: n})
			}
			s.AttachSource(cl, 0, cpu.NewSliceSource(prog))
		}
		return s
	}
	type result struct {
		at      uint64
		stepped uint64
	}
	finish := func(s *System) result {
		if !s.Run(evLimit) {
			t.Fatal("the second machine did not finish")
		}
		r := result{uint64(s.Time()), s.K.Stepped}
		s.Release()
		return r
	}

	first := build(1)
	first.Run(0)
	total := first.K.Stepped
	first.Release()
	want := finish(build(2))

	for _, limit := range []uint64{total / 8, total / 3, total * 2 / 3} {
		cut := build(1)
		if cut.Run(limit) {
			t.Fatalf("limit %d: the first machine finished; cut it earlier", limit)
		}
		if cut.K.Pending() == 0 {
			t.Fatalf("limit %d: nothing pending at the cut", limit)
		}
		cut.Release()
		if n := cut.K.Pending(); n != 0 {
			t.Fatalf("limit %d: the released kernel still holds %d events", limit, n)
		}
		if got := finish(build(2)); got != want {
			t.Fatalf("limit %d: the machine built after a mid-run release finished at %d in %d events, want %d in %d",
				limit, got.at, got.stepped, want.at, want.stepped)
		}
	}
}
