package verif

import (
	"testing"

	"c3/internal/litmus"
)

// TestCheckerProgress: the OnProgress callback streams monotonic
// exploration counts while Check runs, and wiring it changes nothing
// about the exploration's result.
func TestCheckerProgress(t *testing.T) {
	mcfg := mpCXL(t, litmus.SyncFull)
	base, err := Check(mcfg, CheckerConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var calls int
	var last Progress
	rep, err := Check(mcfg, CheckerConfig{
		progressEvery: 64,
		OnProgress: func(p Progress) {
			if p.States < last.States {
				t.Fatalf("states went backwards: %d after %d", p.States, last.States)
			}
			if p.Frontier < 0 || p.Depth < 0 {
				t.Fatalf("negative frontier/depth: %+v", p)
			}
			last = p
			calls++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnProgress never called")
	}
	if last.States == 0 || last.States > rep.States {
		t.Fatalf("last progress states = %d, final = %d", last.States, rep.States)
	}
	if rep.States != base.States || rep.Terminals != base.Terminals || len(rep.Outcomes) != len(base.Outcomes) {
		t.Fatalf("progress callback changed exploration: %+v vs %+v", rep, base)
	}
}

// TestCheckerProgressDefaultStride: a zero progressEvery gets the
// default stride rather than firing per state.
func TestCheckerProgressDefaultStride(t *testing.T) {
	mcfg := mpCXL(t, litmus.SyncFull)
	var calls int
	rep, err := Check(mcfg, CheckerConfig{
		OnProgress: func(Progress) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if max := int(rep.States/2048) + 1; calls > max {
		t.Fatalf("%d calls for %d states, want <= %d (default 2048 stride)", calls, rep.States, max)
	}
}
