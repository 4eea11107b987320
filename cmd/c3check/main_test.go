package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"c3/internal/cpu"
	"c3/internal/litmus"
	"c3/internal/obs"
	"c3/internal/verif"
)

// TestMain runs c3check's main instead of the tests when
// C3CHECK_TEST_MAIN holds its arguments, so that a test can observe
// main's exit code and output in a subprocess.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("C3CHECK_TEST_MAIN"); ok {
		os.Args = append([]string{"c3check"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownTestIsUsageError: a -test name that names no litmus test
// is a usage error found before any exploration starts — exit 2, one
// stderr line, nothing on stdout and no ledger record — and so is a
// -replay against an unknown name or a comma list.
func TestUnknownTestIsUsageError(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, args := range []string{
		"-test MP,BOGUS",
		"-test BOGUS -replay 1,0",
		"-test MP,SB -replay 1,0",
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "C3CHECK_TEST_MAIN="+args+" -ledger "+ledger)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var ee *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &ee) || ee.ExitCode() != obs.ExitUsage {
			t.Errorf("c3check %s: %v, want exit status %d", args, err, obs.ExitUsage)
		}
		if stdout.Len() > 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("c3check %s: want no stdout and one stderr line, got stdout %q, stderr %q",
				args, stdout.String(), stderr.String())
		}
	}
	if _, err := os.Stat(ledger); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a usage error wrote the ledger (stat: %v)", err)
	}
}

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
	for i, last := range []verif.Progress{
		{Counts: verif.Counts{States: 5, Clones: 7}, Frontier: 3, Depth: 2},
		{Counts: verif.Counts{States: 4, Builds: 1, PORSkips: 3}, Frontier: 8, Depth: 6},
	} {
		running.Add(1)
		go func() {
			defer running.Done()
			hook := o.progress(i)
			for n := uint64(0); n < 100; n++ {
				hook(verif.Progress{Counts: verif.Counts{States: n}})
			}
			hook(last)
		}()
	}
	running.Wait()
	total, cur := o.snapshot()
	if want := (verif.Counts{States: 9, Builds: 1, Clones: 7, PORSkips: 3}); total != want {
		t.Fatalf("two running: total %+v, want %+v", total, want)
	}
	if cur.Frontier != 11 || cur.Depth != 6 {
		t.Fatalf("two running: gauges read frontier %d depth %d, want 11 and 6", cur.Frontier, cur.Depth)
	}

	o.done(0, &verif.Report{Counts: verif.Counts{States: 10, Terminals: 2, Clones: 9}}, nil)
	close(stop)
	render.Wait()
	total, cur = o.snapshot()
	if want := (verif.Counts{States: 14, Terminals: 2, Builds: 1, Clones: 9, PORSkips: 3}); total != want {
		t.Fatalf("running total %+v, want %+v", total, want)
	}
	if cur.Frontier != 8 || cur.Depth != 6 {
		t.Fatalf("gauges read frontier %d depth %d, want 8 and 6", cur.Frontier, cur.Depth)
	}
	o.done(1, nil, errors.New("no report"))
	o.TaskStarted(2)
	o.done(2, &verif.Report{Counts: verif.Counts{States: 1, SymmetryMerges: 4}}, nil)
	total, cur = o.snapshot()
	if want := (verif.Counts{States: 15, Terminals: 2, Builds: 1, Clones: 9, SymmetryMerges: 4, PORSkips: 3}); total != want {
		t.Fatalf("final total %+v, want %+v", total, want)
	}
	if cur.Frontier != 0 || cur.Depth != 0 {
		t.Fatalf("gauges not reset after the last test: %+v", cur)
	}
}

// TestReplayFlags: the replay command carries every flag that rebuilds
// the checked machine, MCMs included, and nothing at the defaults.
func TestReplayFlags(t *testing.T) {
	def := verif.ModelConfig{Locals: [2]string{"mesi", "mesi"}, Global: "cxl"}
	for _, tc := range []struct {
		edit func(*verif.ModelConfig)
		want string
	}{
		{func(*verif.ModelConfig) {}, ""},
		{func(c *verif.ModelConfig) { c.Sync = litmus.SyncNone }, " -unsynced"},
		{func(c *verif.ModelConfig) { c.MCMs = [2]cpu.MCM{cpu.TSO, cpu.TSO}; c.Sync = litmus.SyncNone },
			" -mcm0 tso -mcm1 tso -unsynced"},
		{func(c *verif.ModelConfig) { c.MCMs[1] = cpu.SC }, " -mcm1 sc"},
		{func(c *verif.ModelConfig) {
			c.Locals = [2]string{"moesi", "mesif"}
			c.Global, c.TinyLLC, c.MCMs[0] = "hmesi", true, cpu.TSO
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
	defer func(v func(verif.ModelConfig, verif.CheckerConfig) (*verif.Report, error)) { verify = v }(verify)
	verify = func(mcfg verif.ModelConfig, ccfg verif.CheckerConfig) (*verif.Report, error) {
		if mcfg.Test.Name == "SB" {
			panic("controller exploded")
		}
		return verif.Check(mcfg, ccfg)
	}
	tests := []string{"MP", "SB", "LB"}
	models := make([]verif.ModelConfig, len(tests))
	for i, name := range tests {
		mcfg, err := verif.ModelFor(name, false)
		if err != nil {
			t.Fatal(err)
		}
		mcfg.Locals, mcfg.Global = [2]string{"mesi", "mesi"}, "cxl"
		models[i] = mcfg
	}
	for _, workers := range []int{1, 3} {
		c := &checker{ccfg: verif.CheckerConfig{MaxStates: 1_000}, co: newCheckObserver()}
		c.co.Plan(tests)
		var out bytes.Buffer
		if v := c.runAll(models, workers, &out); v != obs.VerdictViolation {
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
