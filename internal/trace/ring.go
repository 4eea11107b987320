package trace

import (
	"fmt"
	"io"

	"c3/internal/mem"
	"c3/internal/msg"
)

// RingSink keeps the most recent events in a fixed-capacity circular
// buffer for post-mortem inspection: cheap enough to leave on for long
// runs, and the history source for watchdog hang reports. The buffer
// grows by append up to its capacity, so a short run pays for the
// events it emits, not for the capacity. A watchdog's ring goes further:
// Watchdog.Release hands it, cleared, to the next watchdog, which keeps
// the grown buffer.
type RingSink struct {
	buf      []Event
	capacity int
	next     int // oldest event, once the ring is full
	// dropped counts events overwritten after the ring filled — history
	// a post-mortem reader silently lost. Surfaced in the metrics
	// registry as trace.dropped_events (see Tracer.DroppedEvents), so an
	// undersized ring is visible instead of quietly truncating reports.
	dropped uint64
}

// NewRing builds a ring holding the last capacity events (<= 0 for the
// default, 4096).
func NewRing(capacity int) *RingSink {
	return &RingSink{capacity: ringCapacity(capacity)}
}

func ringCapacity(capacity int) int {
	if capacity <= 0 {
		return 4096
	}
	return capacity
}

// Emit implements Sink.
func (r *RingSink) Emit(ev Event) {
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, ev)
		return
	}
	r.dropped++
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// Dropped reports how many events have been overwritten since creation.
func (r *RingSink) Dropped() uint64 { return r.dropped }

// Len reports how many events are retained.
func (r *RingSink) Len() int { return len(r.buf) }

// Events returns the retained events in chronological order.
func (r *RingSink) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// History returns the retained events touching line addr, in order.
func (r *RingSink) History(addr mem.LineAddr) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Addr == addr {
			out = append(out, ev)
		}
	}
	return out
}

// writeEvent renders one event in the ring/report format.
func writeEvent(w io.Writer, ev Event, label func(msg.NodeID) string) {
	lbl := func(id msg.NodeID) string {
		if label != nil {
			return label(id)
		}
		return itoa(int64(id))
	}
	switch ev.Kind {
	case KSend, KDeliver:
		fmt.Fprintf(w, "%10d  %-7s %-13s %s  %s -> %s  [%s] #%d\n",
			ev.Time, ev.Kind, ev.MsgType, ev.Addr,
			lbl(ev.Src), lbl(ev.Dst), ev.VNet, ev.Serial)
	case KState:
		fmt.Fprintf(w, "%10d  %-7s %-13s %s  %s: %s -> %s\n",
			ev.Time, ev.Kind, ev.Note, ev.Addr, lbl(ev.Node), ev.Old, ev.New)
	case KRetire:
		fmt.Fprintf(w, "%10d  %-7s %-13s %s  %s\n",
			ev.Time, ev.Kind, ev.Note, ev.Addr, lbl(ev.Node))
	}
}
