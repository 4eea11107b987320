package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracker is the concurrency-safe progress model of one sweep: it knows
// the job plan (item labels in job order), which items are in flight,
// and how many completed or failed. It implements litmus.SoakObserver,
// so passing it as litmus.SoakConfig's Observer keeps it current with
// zero coupling to the sweep's own code. All methods are safe for
// concurrent use; none of them can affect the observed run.
type Tracker struct {
	mu       sync.Mutex
	labels   []string
	started  time.Time
	inflight map[int]time.Time
	done     int
	failed   int
	total    int
}

// NewTracker returns a Tracker with its clock started.
func NewTracker() *Tracker {
	return &Tracker{started: time.Now(), inflight: make(map[int]time.Time)}
}

// Plan announces the sweep's job list: one label per pool item, in item
// order ("MP/light/seed1"). It also (re)sets the total and restarts the
// ETA clock.
func (t *Tracker) Plan(labels []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.labels = append([]string(nil), labels...)
	t.total = len(labels)
	t.started = time.Now()
}

// TaskStarted records item i as in flight.
func (t *Tracker) TaskStarted(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inflight[i] = time.Now()
}

// TaskDone records item i as finished, and failed when err is non-nil.
func (t *Tracker) TaskDone(i int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.inflight, i)
	t.done++
	if err != nil {
		t.failed++
	}
}

// Label renders item i's label ("item 12" when the plan is anonymous).
func (t *Tracker) label(i int) string {
	if i >= 0 && i < len(t.labels) {
		return t.labels[i]
	}
	return fmt.Sprintf("item %d", i)
}

// InFlightItem is one running item in a ProgressSnapshot.
type InFlightItem struct {
	Index int    `json:"index"`
	Label string `json:"label"`
	// RunningMS is how long the item has been executing.
	RunningMS int64 `json:"running_ms"`
}

// ProgressSnapshot is the wire form of a Tracker's state (the "progress"
// object of the /statusz snapshot).
type ProgressSnapshot struct {
	Total   int     `json:"total"`
	Done    int     `json:"done"`
	Failed  int     `json:"failed"`
	Percent float64 `json:"percent"`
	// ElapsedMS is wall time since Plan (or construction).
	ElapsedMS int64 `json:"elapsed_ms"`
	// ETAMS linearly extrapolates the remaining wall time from the
	// completed fraction (0 until the first item completes).
	ETAMS int64 `json:"eta_ms"`
	// InFlight lists the currently executing items — one per busy pool
	// worker — sorted by item index.
	InFlight []InFlightItem `json:"in_flight"`
}

// Snapshot captures the current progress state.
func (t *Tracker) Snapshot() ProgressSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	s := ProgressSnapshot{
		Total:     t.total,
		Done:      t.done,
		Failed:    t.failed,
		ElapsedMS: now.Sub(t.started).Milliseconds(),
	}
	if t.total > 0 {
		s.Percent = 100 * float64(t.done) / float64(t.total)
	}
	if t.done > 0 && t.done < t.total {
		perItem := float64(s.ElapsedMS) / float64(t.done)
		s.ETAMS = int64(perItem * float64(t.total-t.done))
	}
	idxs := make([]int, 0, len(t.inflight))
	for i := range t.inflight {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		s.InFlight = append(s.InFlight, InFlightItem{
			Index: i, Label: t.label(i),
			RunningMS: now.Sub(t.inflight[i]).Milliseconds(),
		})
	}
	return s
}

// line renders the one-line heartbeat form of a snapshot.
func (s *ProgressSnapshot) line(tool string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d done (%.1f%%)", tool, s.Done, s.Total, s.Percent)
	if s.Failed > 0 {
		fmt.Fprintf(&b, ", %d failed", s.Failed)
	}
	if s.ETAMS > 0 {
		fmt.Fprintf(&b, ", eta %s", (time.Duration(s.ETAMS) * time.Millisecond).Round(time.Second))
	}
	if len(s.InFlight) > 0 {
		lim := len(s.InFlight)
		if lim > 4 {
			lim = 4
		}
		parts := make([]string, 0, lim)
		for _, it := range s.InFlight[:lim] {
			parts = append(parts, it.Label)
		}
		fmt.Fprintf(&b, ", running: %s", strings.Join(parts, " "))
		if lim < len(s.InFlight) {
			fmt.Fprintf(&b, " +%d", len(s.InFlight)-lim)
		}
	}
	return b.String()
}

// Heartbeat emits one progress line to w every interval — the headless-CI
// counterpart of the statusz endpoint (a sweep inside a CI job is
// otherwise silent until the final report). The goroutine terminates
// when ctx is cancelled or when the returned stop function runs; both
// paths join it before returning control (no leaked goroutines on
// graceful shutdown). stop additionally emits one final line and is
// safe to call more than once, including after ctx cancellation.
func Heartbeat(ctx context.Context, w io.Writer, interval time.Duration, tool string, t *Tracker) (stop func()) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	quit := make(chan struct{})
	dead := make(chan struct{})
	go func() {
		defer close(dead)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s := t.Snapshot()
				fmt.Fprintln(w, s.line(tool))
			case <-ctx.Done():
				return
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-dead
			s := t.Snapshot()
			fmt.Fprintln(w, s.line(tool))
		})
	}
}
