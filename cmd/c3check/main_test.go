package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

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
	usageErrors(t, "-test MP,BOGUS", "-test BOGUS -replay 1,0", "-test MP,SB -replay 1,0")
}

// TestNegativeMaxDepthIsUsageError: a negative -max-depth is refused
// before any exploration, instead of reporting a livelock at the root
// with a witness that cannot replay.
func TestNegativeMaxDepthIsUsageError(t *testing.T) {
	usageErrors(t, "-test MP -max-depth -1")
}

// usageErrors runs main once per argument list and fails t unless each
// exits 2 with one stderr line, nothing on stdout and no ledger record.
func usageErrors(t *testing.T, argLists ...string) {
	t.Helper()
	ledger := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, args := range argLists {
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

// corpusModels resolves names to synced models on MESI-CXL-MESI.
func corpusModels(t *testing.T, names ...string) []verif.ModelConfig {
	t.Helper()
	models := make([]verif.ModelConfig, len(names))
	for i, name := range names {
		mcfg, err := verif.ModelFor(name, false)
		if err != nil {
			t.Fatal(err)
		}
		mcfg.Locals, mcfg.Global = [2]string{"mesi", "mesi"}, "cxl"
		models[i] = mcfg
	}
	return models
}

// runTests runs models through runAll at workers slots under a
// one-hour task budget and retries retries, and returns the printed
// lines and the verdict.
func runTests(models []verif.ModelConfig, workers, retries int, interrupt <-chan struct{}) (string, string) {
	c := &checker{ccfg: verif.CheckerConfig{MaxStates: 1_000, Interrupt: interrupt},
		taskTimeout: time.Hour, retries: retries, co: newCheckObserver()}
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Test.Name
	}
	c.co.Plan(names)
	var out bytes.Buffer
	v := c.runAll(models, workers, &out)
	return out.String(), v
}

// seconds masks the wall-clock readings in c3check's lines.
var seconds = regexp.MustCompile(`\([0-9]+\.[0-9]+s\)`)

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
	models := corpusModels(t, "MP", "SB", "LB")
	for _, workers := range []int{1, 3} {
		s, v := runTests(models, workers, 0, nil)
		if v != obs.VerdictViolation {
			t.Errorf("-j %d: verdict %s, want %s", workers, v, obs.VerdictViolation)
		}
		mp := strings.Index(s, "MP       verified: ")
		sb := strings.Index(s, "SB       FAIL: panic: controller exploded\ngoroutine ")
		lb := strings.Index(s, "LB       verified: ")
		if mp != 0 || sb < mp || lb < sb {
			t.Errorf("-j %d: want MP's line, SB's FAIL with its stack, then LB's line; got\n%s", workers, s)
		}
	}
}

// TestDeadlineCutsSpendTheQueuesRetries: -retries is the queue's budget.
// An exploration whose first attempt is cut by its deadline prints,
// after one retry, the line an unretried run prints; with no retry left
// the cut is its TIMEOUT line, naming its one attempt.
func TestDeadlineCutsSpendTheQueuesRetries(t *testing.T) {
	defer func(v func(verif.ModelConfig, verif.CheckerConfig) (*verif.Report, error)) { verify = v }(verify)
	models := corpusModels(t, "MP", "SB", "LB")
	var mu sync.Mutex
	var attempts map[string]int
	verify = func(mcfg verif.ModelConfig, ccfg verif.CheckerConfig) (*verif.Report, error) {
		mu.Lock()
		attempts[mcfg.Test.Name]++
		n := attempts[mcfg.Test.Name]
		mu.Unlock()
		if mcfg.Test.Name == "SB" && n == 1 {
			return &verif.Report{Counts: verif.Counts{States: 7}},
				fmt.Errorf("verif: SB: %w after 7 states", litmus.ErrTaskDeadline)
		}
		return verif.Check(mcfg, ccfg)
	}
	for _, workers := range []int{1, 3} {
		attempts = map[string]int{"SB": 1} // no cut: the unretried run
		want, v := runTests(models, workers, 0, nil)
		if v != obs.VerdictPass {
			t.Fatalf("-j %d: unretried run: verdict %s, want %s\n%s", workers, v, obs.VerdictPass, want)
		}

		attempts = map[string]int{}
		got, v := runTests(models, workers, 1, nil)
		if v != obs.VerdictPass || seconds.ReplaceAllString(got, "") != seconds.ReplaceAllString(want, "") {
			t.Errorf("-j %d -retries 1: verdict %s, lines\n%swant %s and the unretried lines\n%s", workers, v, got, obs.VerdictPass, want)
		}
		if attempts["SB"] != 2 {
			t.Errorf("-j %d -retries 1: SB explored %d times, want 2", workers, attempts["SB"])
		}

		attempts = map[string]int{}
		got, v = runTests(models, workers, 0, nil)
		lines := strings.SplitAfter(want, "\n")
		lines[1] = "SB       TIMEOUT after 7 states: every attempt exceeded the 1h0m0s budget (1 attempts)\n"
		if v != obs.VerdictTimeout || seconds.ReplaceAllString(got, "") != seconds.ReplaceAllString(strings.Join(lines, ""), "") {
			t.Errorf("-j %d -retries 0: verdict %s, lines\n%swant %s and SB's TIMEOUT line", workers, v, got, obs.VerdictTimeout)
		}
	}
}

// TestInterruptStopsTheQueue: an exploration the interrupt cuts mid-run
// prints its INTERRUPTED after N states line, a test waiting out its
// retry backoff says so, and the tests that had not started print
// INTERRUPTED before start — every test of them when the interrupt came
// before the drain. The verdict is interrupted.
func TestInterruptStopsTheQueue(t *testing.T) {
	defer func(v func(verif.ModelConfig, verif.CheckerConfig) (*verif.Report, error)) { verify = v }(verify)
	models := corpusModels(t, "MP", "SB", "LB")
	for _, workers := range []int{1, 3} {
		stop := make(chan struct{})
		close(stop)
		got, v := runTests(models, workers, 1, stop)
		want := "MP       INTERRUPTED before start\nSB       INTERRUPTED before start\nLB       INTERRUPTED before start\n"
		if v != obs.VerdictInterrupted || got != want {
			t.Errorf("-j %d, interrupted before the drain: verdict %s, lines\n%swant %s and\n%s",
				workers, v, got, obs.VerdictInterrupted, want)
		}

		// SB's exploration sees the interrupt arrive and stops at its
		// next poll, as verif.Check does.
		stop = make(chan struct{})
		verify = func(mcfg verif.ModelConfig, ccfg verif.CheckerConfig) (*verif.Report, error) {
			if mcfg.Test.Name == "SB" {
				close(stop)
				return &verif.Report{Counts: verif.Counts{States: 7}},
					fmt.Errorf("verif: SB: %w after 7 states", litmus.ErrInterrupted)
			}
			return verif.Check(mcfg, ccfg)
		}
		got, v = runTests(models, workers, 1, stop)
		mp := strings.Index(got, "MP       ")
		sb := strings.Index(got, "SB       INTERRUPTED after 7 states (")
		lb := strings.Index(got, "LB       ")
		if v != obs.VerdictInterrupted || mp != 0 || sb < mp || lb < sb || !strings.Contains(got, "s): partial, no verdict\n") {
			t.Errorf("-j %d, interrupted mid-run: verdict %s, lines\n%swant %s and SB's INTERRUPTED after 7 states line",
				workers, v, got, obs.VerdictInterrupted)
		}
		if workers == 1 && (!strings.HasPrefix(got, "MP       verified: ") || !strings.HasSuffix(got, "LB       INTERRUPTED before start\n")) {
			t.Errorf("-j 1, interrupted mid-run: want MP verified before the cut and LB never started; got\n%s", got)
		}

		// SB's first attempt hits its deadline as the interrupt arrives,
		// so the queue stops during SB's retry backoff.
		stop = make(chan struct{})
		verify = func(mcfg verif.ModelConfig, ccfg verif.CheckerConfig) (*verif.Report, error) {
			if mcfg.Test.Name == "SB" {
				close(stop)
				return &verif.Report{Counts: verif.Counts{States: 7}},
					fmt.Errorf("verif: SB: %w after 7 states", litmus.ErrTaskDeadline)
			}
			return verif.Check(mcfg, ccfg)
		}
		got, v = runTests(models, workers, 1, stop)
		if want := "\nSB       INTERRUPTED between attempts (1 timed out): partial, no verdict\nLB       "; v != obs.VerdictInterrupted || !strings.Contains(got, want) {
			t.Errorf("-j %d, interrupted in SB's backoff: verdict %s, lines\n%swant %s and SB's line %q",
				workers, v, got, obs.VerdictInterrupted, want)
		}
	}
}
