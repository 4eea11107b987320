package litmus

import (
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/faults"
	"c3/internal/obs"
)

// recordingObserver implements SoakObserver + SoakRowObserver and
// records everything it sees (events arrive concurrently from pool
// workers).
type recordingObserver struct {
	mu      sync.Mutex
	labels  []string
	started int
	done    int
	failed  int
	rows    []SoakRun
}

func (o *recordingObserver) Plan(labels []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.labels = append([]string(nil), labels...)
}

func (o *recordingObserver) TaskStarted(int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started++
}

func (o *recordingObserver) TaskDone(_ int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.done++
	if err != nil {
		o.failed++
	}
}

func (o *recordingObserver) CampaignDone(_ int, row SoakRun) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rows = append(o.rows, row)
}

// TestSoakObserverSeesSweep: the observer gets the labeled plan, one
// start/done pair per campaign, and every completed row — and the
// report's bytes are identical to an unobserved run at any worker count.
func TestSoakObserverSeesSweep(t *testing.T) {
	cfg := SoakConfig{
		Tests: []string{"MP", "SB"},
		Plans: []NamedPlan{{Name: "light", Plan: faults.Plan{Rates: faults.Rates{Drop: 0.01}}}},
		Seeds: []int64{1, 2},
		Iters: 2,
	}
	baseRep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := baseRep.Render()

	for _, workers := range []int{1, 3} {
		obs := &recordingObserver{}
		cfg.Workers = workers
		cfg.Observer = obs
		rep, err := RunSoak(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rep.Render(); got != base {
			t.Fatalf("workers=%d: observer changed the report:\n--- unobserved ---\n%s--- observed ---\n%s",
				workers, base, got)
		}
		obs.mu.Lock()
		if want := []string{"MP/light/seed1", "MP/light/seed2", "SB/light/seed1", "SB/light/seed2"}; len(obs.labels) != len(want) {
			t.Fatalf("workers=%d: plan = %v, want %v", workers, obs.labels, want)
		} else {
			for i, l := range want {
				if obs.labels[i] != l {
					t.Errorf("workers=%d: label[%d] = %q, want %q", workers, i, obs.labels[i], l)
				}
			}
		}
		if obs.started != 4 || obs.done != 4 || obs.failed != 0 {
			t.Errorf("workers=%d: started/done/failed = %d/%d/%d, want 4/4/0",
				workers, obs.started, obs.done, obs.failed)
		}
		if len(obs.rows) != 4 {
			t.Errorf("workers=%d: observer saw %d rows, want 4", workers, len(obs.rows))
		}
		obs.mu.Unlock()
	}
	cfg.Observer = nil
}

// TestSoakTimeoutFlushesPartialReport pins the -timeout abort path: an
// already-expired bound yields a full-length report whose rows are all
// flagged TimedOut, the verdict is "timeout", and the render names the
// cutoff — the ledger and a reader can both tell a timeout from a
// protocol failure.
func TestSoakTimeoutFlushesPartialReport(t *testing.T) {
	cfg := SoakConfig{
		Tests:   []string{"MP"},
		Plans:   []NamedPlan{{Name: "light", Plan: faults.Plan{Rates: faults.Rates{Drop: 0.01}}}},
		Seeds:   []int64{1, 2},
		Iters:   2,
		Timeout: time.Nanosecond, // expires before any campaign starts
	}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("%d rows, want 2 (timeout rows are rows, not missing entries)", len(rep.Runs))
	}
	for i := range rep.Runs {
		if !rep.Runs[i].TimedOut || rep.Runs[i].Err == "" {
			t.Fatalf("row %d not flagged: %+v", i, rep.Runs[i])
		}
	}
	if !rep.TimedOut() || rep.OK() {
		t.Fatalf("TimedOut()=%v OK()=%v, want true/false", rep.TimedOut(), rep.OK())
	}
	if v := rep.Verdict(); v != "timeout" {
		t.Fatalf("verdict = %q, want timeout", v)
	}
	out := rep.Render()
	if !strings.Contains(out, "TIMEOUT: timeout: sweep exceeded") || !strings.Contains(out, "SOAK TIMEOUT") {
		t.Fatalf("render missing timeout markers:\n%s", out)
	}
}

// TestSoakVerdictPrecedence: a real failure outranks a timeout; clean
// rows pass.
func TestSoakVerdictPrecedence(t *testing.T) {
	pass := &SoakReport{Runs: []SoakRun{{Test: "MP"}}}
	if v := pass.Verdict(); v != "pass" {
		t.Errorf("clean verdict = %q, want pass", v)
	}
	mixed := &SoakReport{Runs: []SoakRun{
		{Test: "MP", TimedOut: true, Err: "timeout"},
		{Test: "SB", Forbidden: 1},
	}}
	if v := mixed.Verdict(); v != "fail" {
		t.Errorf("mixed verdict = %q, want fail (forbidden beats timeout)", v)
	}
}

// trackedObserver feeds an obs.Tracker, as c3soak's observer does, and
// counts every event per row.
type trackedObserver struct {
	*obs.Tracker
	mu                  sync.Mutex
	started, done, rows map[int]int
	resumed             int
	doneOrder           []int
}

func newTrackedObserver() *trackedObserver {
	return &trackedObserver{Tracker: obs.NewTracker(),
		started: map[int]int{}, done: map[int]int{}, rows: map[int]int{}}
}

func (o *trackedObserver) TaskStarted(i int) {
	o.Tracker.TaskStarted(i)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started[i]++
}

func (o *trackedObserver) TaskDone(i int, err error) {
	o.Tracker.TaskDone(i, err)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.done[i]++
	o.doneOrder = append(o.doneOrder, i)
}

func (o *trackedObserver) CampaignDone(i int, row SoakRun) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rows[i]++
	if row.Resumed {
		o.resumed++
	}
}

// TestSoakResumedRowsReachObserver: rows resumed from checkpoints reach
// the observer once each — TaskStarted, TaskDone, CampaignDone — exactly
// like executed rows, so a Tracker reaches 100% after -resume and row
// tallies (c3soak's counters) still count every row. They arrive before
// any executed row finishes, so live progress counts them from the
// start.
func TestSoakResumedRowsReachObserver(t *testing.T) {
	base, err := RunSoak(resilienceSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := make(map[string]SoakRun)
	partial := make(map[string]SoakRun)
	for _, r := range base.Runs {
		all[RowLabel(r.Test, r.Plan, r.Seed)] = r
		if r.Test == "MP" {
			partial[RowLabel(r.Test, r.Plan, r.Seed)] = r
		}
	}
	for _, workers := range []int{1, 3} {
		for _, completed := range []map[string]SoakRun{partial, all} {
			cfg := resilienceSoakConfig()
			cfg.Workers = workers
			cfg.Completed = completed
			o := newTrackedObserver()
			cfg.Observer = o
			rep, err := RunSoak(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Render(); got != base.Render() {
				t.Fatalf("workers=%d, %d resumed: report differs:\n%s", workers, len(completed), got)
			}
			for i := range rep.Runs {
				if o.started[i] != 1 || o.done[i] != 1 || o.rows[i] != 1 {
					t.Errorf("workers=%d, %d resumed: row %d saw %d/%d/%d started/done/row events, want 1/1/1",
						workers, len(completed), i, o.started[i], o.done[i], o.rows[i])
				}
			}
			if o.resumed != len(completed) {
				t.Errorf("workers=%d: observer saw %d resumed rows, want %d", workers, o.resumed, len(completed))
			}
			for _, i := range o.doneOrder[:len(completed)] {
				if !rep.Runs[i].Resumed {
					t.Errorf("workers=%d: executed row %d finished before the resumed rows were reported (order %v)",
						workers, i, o.doneOrder)
				}
			}
			if snap := o.Snapshot(); snap.Done != len(rep.Runs) || snap.Percent != 100 || len(snap.InFlight) != 0 {
				t.Errorf("workers=%d, %d resumed: tracker %+v, want %d/%d done at 100%%",
					workers, len(completed), snap, len(rep.Runs), len(rep.Runs))
			}
		}
	}
}
