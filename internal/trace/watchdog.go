package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/sim"
)

// DefaultHangAgeNS is the default watchdog threshold: 10x the simulated
// cross-cluster round trip (Table III: two 70 ns link traversals plus
// flit serialization and controller occupancy, ~150 ns end to end).
// Any well-formed transaction completes well inside one round trip per
// protocol level; ten round trips of silence on an open transaction is
// a hang, not a queue.
const DefaultHangAgeNS = 1500

// DefaultHangAge is DefaultHangAgeNS in cycles.
const DefaultHangAge = sim.Time(DefaultHangAgeNS * sim.CyclesPerNS)

// Dumper is implemented by every controller that can render its state
// (the model checker's DumpState); the watchdog reuses it for hang
// reports.
type Dumper interface {
	DumpState(w io.Writer)
}

// atxn tracks the open transactions of one line.
type atxn struct {
	opens, closes int
	// oldestOpen is when the current unbroken run of open transactions
	// began; reset whenever the line goes idle (closes == opens).
	oldestOpen sim.Time
	last       sim.Time
	// bySrc attributes open transactions to their requestor (the Src of
	// the opening send; the Dst of the closing delivery), so a host crash
	// can cancel exactly the dead host's transactions (DropNodes). A
	// line has a handful of requestors at most, so a slice beats a map.
	bySrc []srcCount
}

// srcCount is one requestor's open transactions on a line.
type srcCount struct {
	id msg.NodeID
	n  int
}

// find returns id's entry in bySrc, or nil.
func (t *atxn) find(id msg.NodeID) *srcCount {
	for i := range t.bySrc {
		if t.bySrc[i].id == id {
			return &t.bySrc[i]
		}
	}
	return nil
}

// Watchdog maintains the in-flight transaction table and turns protocol
// hangs into reports. It observes the same event stream as every other
// sink: request sends open a per-line transaction, grant/completion
// deliveries close one. When a line with open transactions has seen no
// traffic at all for longer than MaxAge, the watchdog dumps the line's
// event history (from its ring) and every registered controller's
// DumpState, then reports through OnHang (default: panic, so silent
// deadlocks cannot pass unnoticed). The criterion is silence, not age:
// a hot line under sustained contention can stay open indefinitely
// while making progress, and must not trip the watchdog.
//
// The check is event-driven, not polled: a kernel timer is armed only
// while transactions are open and cancelled when the system goes idle,
// so an armed watchdog never keeps the event queue alive after a run
// completes.
type Watchdog struct {
	k      *sim.Kernel
	MaxAge sim.Time
	// OnHang, when non-nil, receives the report instead of panicking.
	OnHang func(report string)
	// OnHangReport, when non-nil, receives the structured report and
	// takes precedence over OnHang. The soak harness uses it to classify
	// hangs (link stall vs. poisoned line vs. protocol deadlock) instead
	// of crashing the campaign.
	OnHangReport func(HangReport)
	// Classify, when non-nil, labels the hung line for the report. The
	// system wires it to the fault injector's view: a line with pending
	// retransmissions classifies as "link-retry", a poisoned line as
	// "poisoned-line"; everything else is a "protocol-hang".
	Classify func(line mem.LineAddr) string

	ring *RingSink
	open map[mem.LineAddr]*atxn
	// spare holds the records of lines that went idle, for the next line
	// to open.
	spare []*atxn
	// checkFn is check as a long-lived callback for the hang timer.
	checkFn func()
	timer   sim.Handle
	armed   bool
	fired   bool
	rep     string

	dumpers []namedDumper
	names   func(msg.NodeID) string
}

type namedDumper struct {
	name string
	d    Dumper
}

// historyRings recycles the history rings of released watchdogs
// (Watchdog.Release). A soak arms one watchdog per iteration; each
// regrowing its ring from empty would be about 40% of the bytes a
// soak-crash sweep allocates.
var historyRings sync.Pool

// NewWatchdog builds a watchdog on kernel k. maxAge <= 0 selects
// DefaultHangAge; historyCap sizes the per-report event ring (<= 0 for
// the default). The ring is one a released watchdog left behind when
// there is one: empty, but with its buffer already grown.
func NewWatchdog(k *sim.Kernel, maxAge sim.Time, historyCap int) *Watchdog {
	if maxAge <= 0 {
		maxAge = DefaultHangAge
	}
	ring, _ := historyRings.Get().(*RingSink)
	if ring == nil {
		ring = NewRing(historyCap)
	} else {
		ring.capacity = ringCapacity(historyCap)
	}
	w := &Watchdog{
		k: k, MaxAge: maxAge,
		ring: ring,
		open: make(map[mem.LineAddr]*atxn),
	}
	w.checkFn = w.check
	return w
}

// Release returns the watchdog's history ring to the pool for the next
// watchdog. The ring is cleared first, so no event outlives its run.
// System.Release calls it when it retires the machine; the watchdog
// ignores any event after it (Fired and Report still answer).
func (w *Watchdog) Release() {
	r := w.ring
	if r == nil {
		return
	}
	w.ring = nil
	clear(r.buf)
	r.buf, r.next, r.dropped = r.buf[:0], 0, 0
	historyRings.Put(r)
}

// AddDumper registers a controller whose DumpState appears in reports.
func (w *Watchdog) AddDumper(name string, d Dumper) {
	w.dumpers = append(w.dumpers, namedDumper{name, d})
}

// Fired reports whether a hang has been detected.
func (w *Watchdog) Fired() bool { return w.fired }

// Report returns the hang report, or "" if none fired.
func (w *Watchdog) Report() string { return w.rep }

// observe feeds one trace event into the transaction table.
func (w *Watchdog) observe(ev Event) {
	if w.fired || w.ring == nil {
		return
	}
	w.ring.Emit(ev)
	switch ev.Kind {
	case KSend:
		t := w.open[ev.Addr]
		if t != nil {
			t.last = ev.Time // any traffic on an open line is progress
		}
		if !opens(ev.MsgType) {
			return
		}
		if t == nil {
			if k := len(w.spare); k > 0 {
				t, w.spare = w.spare[k-1], w.spare[:k-1]
			} else {
				t = &atxn{}
			}
			w.open[ev.Addr] = t
		}
		if t.opens == t.closes {
			t.oldestOpen = ev.Time
		}
		t.opens++
		if c := t.find(ev.Src); c != nil {
			c.n++
		} else {
			t.bySrc = append(t.bySrc, srcCount{ev.Src, 1})
		}
		t.last = ev.Time
		w.arm()
	case KDeliver:
		t := w.open[ev.Addr]
		if t != nil {
			t.last = ev.Time
			if closes(ev.MsgType) && t.closes < t.opens {
				t.closes++
				if c := t.find(ev.Dst); c != nil && c.n > 0 {
					c.n--
				}
				if t.closes == t.opens {
					w.drop(ev.Addr, t)
					if len(w.open) == 0 {
						w.disarm()
					}
				}
			}
		}
	}
}

// drop removes line addr's record t from the open table and keeps it,
// emptied, for the next line to open.
func (w *Watchdog) drop(addr mem.LineAddr, t *atxn) {
	delete(w.open, addr)
	*t = atxn{bySrc: t.bySrc[:0]}
	w.spare = append(w.spare, t)
}

// arm schedules the hang check if it is not already pending.
func (w *Watchdog) arm() {
	if w.armed || w.fired {
		return
	}
	w.timer = w.k.After(w.MaxAge+1, w.checkFn)
	w.armed = true
}

func (w *Watchdog) disarm() {
	if w.armed {
		w.k.Cancel(w.timer)
		w.timer = sim.Handle{}
		w.armed = false
	}
}

// check fires the report for the lowest-addressed silent open line, so
// a run names the same hung line every time, or re-arms for the least
// recently active one.
func (w *Watchdog) check() {
	w.armed = false
	if w.fired || len(w.open) == 0 {
		return
	}
	now := w.k.Now()
	var stalest sim.Time
	var hung *atxn
	var hungAddr mem.LineAddr
	first := true
	for addr, t := range w.open {
		if now-t.last > w.MaxAge && (hung == nil || addr < hungAddr) {
			hung, hungAddr = t, addr
		}
		if first || t.last < stalest {
			stalest = t.last
			first = false
		}
	}
	if hung != nil {
		w.fire(hungAddr, hung)
		return
	}
	w.timer = w.k.Schedule(stalest+w.MaxAge+1, w.checkFn)
	w.armed = true
}

// DropNodes cancels the open transactions attributed to the given nodes
// (a crashed host's requests will never see their completions — they are
// abandoned, not hung). Lines whose remaining opens are all balanced are
// closed out; the watchdog disarms when nothing is left in flight.
func (w *Watchdog) DropNodes(ids ...msg.NodeID) {
	if w.fired {
		return
	}
	for addr, t := range w.open {
		for _, id := range ids {
			if c := t.find(id); c != nil && c.n > 0 {
				t.opens -= c.n
				c.n = 0
			}
		}
		if t.closes >= t.opens {
			w.drop(addr, t)
		}
	}
	if len(w.open) == 0 {
		w.disarm()
	}
}

// HangReport is the structured form of a watchdog hang: what line stuck,
// its transaction bookkeeping, a classification, and the rendered text
// report (event history + controller dumps).
type HangReport struct {
	Line          mem.LineAddr
	Opens, Closes int
	OldestOpen    sim.Time
	LastActivity  sim.Time
	At            sim.Time
	// Class is "protocol-hang" unless a Classify hook refines it (e.g.
	// "link-retry", "poisoned-line").
	Class string
	// Text is the full human-readable report.
	Text string
}

// fire builds and delivers the hang report.
func (w *Watchdog) fire(addr mem.LineAddr, t *atxn) {
	w.fired = true
	w.disarm()

	class := "protocol-hang"
	if w.Classify != nil {
		if c := w.Classify(addr); c != "" {
			class = c
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trace: watchdog: transaction hang on line %s at t=%d [%s]\n", addr, w.k.Now(), class)
	fmt.Fprintf(&b, "  open=%d closed=%d oldest-open=%d last-activity=%d max-age=%d\n",
		t.opens, t.closes, t.oldestOpen, t.last, w.MaxAge)

	// Other lines still in flight, for context.
	var others []mem.LineAddr
	for a := range w.open {
		if a != addr {
			others = append(others, a)
		}
	}
	if len(others) > 0 {
		sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
		fmt.Fprintf(&b, "  other open lines: %v\n", others)
	}

	b.WriteString("\nmessage history of the hung line:\n")
	hist := w.ring.History(addr)
	if len(hist) == 0 {
		b.WriteString("  (event ring no longer holds this line's history; enlarge historyCap)\n")
	}
	for _, ev := range hist {
		writeEvent(&b, ev, w.names)
	}

	b.WriteString("\ncontroller state:\n")
	for _, nd := range w.dumpers {
		fmt.Fprintf(&b, "-- %s --\n", nd.name)
		nd.d.DumpState(&b)
	}

	w.rep = b.String()
	if w.OnHangReport != nil {
		w.OnHangReport(HangReport{
			Line: addr, Opens: t.opens, Closes: t.closes,
			OldestOpen: t.oldestOpen, LastActivity: t.last, At: w.k.Now(),
			Class: class, Text: w.rep,
		})
		return
	}
	if w.OnHang != nil {
		w.OnHang(w.rep)
		return
	}
	panic(w.rep)
}
