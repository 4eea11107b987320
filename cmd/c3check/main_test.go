package main

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"c3"
)

// TestCheckObserverTotals: the check.* counters sum the finished tests
// plus the running test's latest sample, a finished test counts its
// report (or, without one, its last sample), and the registry can be
// rendered while the exploration reports progress.
func TestCheckObserverTotals(t *testing.T) {
	o := newCheckObserver()
	o.Plan([]string{"A", "B", "C"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b bytes.Buffer
				if err := o.registry.RenderJSON(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	o.TaskStarted(0)
	o.progress(c3.CheckProgress{Counts: c3.CheckCounts{States: 5, Clones: 7}, Frontier: 3, Depth: 2})
	o.done(0, &c3.VerifyReport{CheckCounts: c3.CheckCounts{States: 10, Terminals: 2, Clones: 9}}, nil)
	o.TaskStarted(1)
	o.progress(c3.CheckProgress{Counts: c3.CheckCounts{States: 4, Builds: 1, PORSkips: 3}, Frontier: 8, Depth: 6})
	close(stop)
	wg.Wait()

	total, cur := o.snapshot()
	if want := (c3.CheckCounts{States: 14, Terminals: 2, Builds: 1, Clones: 9, PORSkips: 3}); total != want {
		t.Fatalf("running total %+v, want %+v", total, want)
	}
	if cur.Frontier != 8 || cur.Depth != 6 {
		t.Fatalf("gauges read frontier %d depth %d, want 8 and 6", cur.Frontier, cur.Depth)
	}
	o.done(1, nil, errors.New("no report"))
	o.TaskStarted(2)
	o.done(2, &c3.VerifyReport{CheckCounts: c3.CheckCounts{States: 1, SymmetryMerges: 4}}, nil)
	total, cur = o.snapshot()
	if want := (c3.CheckCounts{States: 15, Terminals: 2, Builds: 1, Clones: 9, SymmetryMerges: 4, PORSkips: 3}); total != want {
		t.Fatalf("final total %+v, want %+v", total, want)
	}
	if cur.Frontier != 0 || cur.Depth != 0 {
		t.Fatalf("gauges not reset after the last test: %+v", cur)
	}
}
