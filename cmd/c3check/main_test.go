package main

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"c3"
	"c3/internal/obs"
)

// TestCheckObserverTotals: the check.* counters sum the finished tests
// plus every running test's latest sample, the gauges sum the running
// frontiers and take the deepest depth, a finished test counts its
// report (or, without one, its last sample), and the registry can be
// rendered while two tests report progress at once.
func TestCheckObserverTotals(t *testing.T) {
	o := newCheckObserver()
	o.Plan([]string{"A", "B", "C"})
	stop := make(chan struct{})
	var render sync.WaitGroup
	render.Add(1)
	go func() {
		defer render.Done()
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
	o.TaskStarted(1)
	var running sync.WaitGroup
	for i, last := range []c3.CheckProgress{
		{Counts: c3.CheckCounts{States: 5, Clones: 7}, Frontier: 3, Depth: 2},
		{Counts: c3.CheckCounts{States: 4, Builds: 1, PORSkips: 3}, Frontier: 8, Depth: 6},
	} {
		running.Add(1)
		go func() {
			defer running.Done()
			hook := o.progress(i)
			for n := uint64(0); n < 100; n++ {
				hook(c3.CheckProgress{Counts: c3.CheckCounts{States: n}})
			}
			hook(last)
		}()
	}
	running.Wait()
	total, cur := o.snapshot()
	if want := (c3.CheckCounts{States: 9, Builds: 1, Clones: 7, PORSkips: 3}); total != want {
		t.Fatalf("two running: total %+v, want %+v", total, want)
	}
	if cur.Frontier != 11 || cur.Depth != 6 {
		t.Fatalf("two running: gauges read frontier %d depth %d, want 11 and 6", cur.Frontier, cur.Depth)
	}

	o.done(0, &c3.VerifyReport{CheckCounts: c3.CheckCounts{States: 10, Terminals: 2, Clones: 9}}, nil)
	close(stop)
	render.Wait()
	total, cur = o.snapshot()
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

// TestReplayFlags: the replay command carries every flag that rebuilds
// the checked machine, MCMs included, and nothing at the defaults.
func TestReplayFlags(t *testing.T) {
	def := c3.VerifyConfig{Locals: [2]string{"mesi", "mesi"}, Global: "cxl"}
	for _, tc := range []struct {
		edit func(*c3.VerifyConfig)
		want string
	}{
		{func(*c3.VerifyConfig) {}, ""},
		{func(c *c3.VerifyConfig) { c.Unsynced = true }, " -unsynced"},
		{func(c *c3.VerifyConfig) { c.MCMs = [2]c3.MCM{c3.TSO, c3.TSO}; c.Unsynced = true },
			" -mcm0 tso -mcm1 tso -unsynced"},
		{func(c *c3.VerifyConfig) { c.MCMs[1] = c3.SC }, " -mcm1 sc"},
		{func(c *c3.VerifyConfig) {
			c.Locals = [2]string{"moesi", "mesif"}
			c.Global, c.TinyLLC, c.MCMs[0] = "hmesi", true, c3.TSO
		}, " -local0 moesi -local1 mesif -global hmesi -mcm0 tso -tiny"},
	} {
		cfg := def
		tc.edit(&cfg)
		if got := replayFlags(cfg); got != tc.want {
			t.Errorf("replayFlags(%+v) = %q, want %q", cfg, got, tc.want)
		}
	}
}

// TestPanicIsTheTestsFail: a panic in one test's exploration becomes
// that test's FAIL line, with the panic value and stack, while the other
// tests still run and print, in test order at every -j.
func TestPanicIsTheTestsFail(t *testing.T) {
	defer func(v func(string, c3.VerifyConfig) (*c3.VerifyReport, error)) { verify = v }(verify)
	verify = func(name string, cfg c3.VerifyConfig) (*c3.VerifyReport, error) {
		if name == "SB" {
			panic("controller exploded")
		}
		return c3.Verify(name, cfg)
	}
	tests := []string{"MP", "SB", "LB"}
	for _, workers := range []int{1, 3} {
		c := &checker{cfg: c3.VerifyConfig{MaxStates: 1_000}, co: newCheckObserver()}
		c.co.Plan(tests)
		var out bytes.Buffer
		if v := c.runAll(tests, workers, &out); v != obs.VerdictViolation {
			t.Errorf("-j %d: verdict %s, want %s", workers, v, obs.VerdictViolation)
		}
		s := out.String()
		mp := strings.Index(s, "MP       verified: ")
		sb := strings.Index(s, "SB       FAIL: panic: controller exploded\ngoroutine ")
		lb := strings.Index(s, "LB       verified: ")
		if mp != 0 || sb < mp || lb < sb {
			t.Errorf("-j %d: want MP's line, SB's FAIL with its stack, then LB's line; got\n%s", workers, s)
		}
	}
}
