package hmesi

import (
	"fmt"
	"io"

	"c3/internal/fp"
	"c3/internal/mem"
	"c3/internal/msg"
)

// DumpState writes a readable rendering of the directory for the hang
// watchdog's reports, lines in address order.
func (d *Dir) DumpState(w io.Writer) {
	fmt.Fprint(w, "HDIR")
	for _, a := range d.lines.Lines(nil) {
		l := d.lines.Peek(a)
		fmt.Fprintf(w, "%x:%d:%d:%v:%v:%d:%d:q%d;", uint64(a), l.state, l.owner,
			l.sharers, l.busy, l.copyBackFrom, l.pendingReq, len(l.queue))
	}
	fmt.Fprintln(w)
}

// Fingerprint writes the directory into the model checker's state hash,
// with line addresses and host ids renamed by rn: each line's state,
// owner, sharers, busy flag, in-flight downgrade, poison flag and queued
// requests in order, then the set of isolated hosts. Untouched default
// lines are left out, so "never referenced" and "referenced then fully
// released" merge. lastFwdFrom stays out too: it is a crash-recovery
// breadcrumb that only ReclaimHost reads.
func (d *Dir) Fingerprint(h *fp.Hasher, rn fp.Renamer) {
	var lines fp.Bag
	d.lines.ForEachRO(func(a mem.LineAddr, l *hline) {
		if l.state == hI && l.owner == msg.None && l.sharers.Empty() && !l.busy &&
			l.copyBackFrom == msg.None && l.pendingReq == msg.None && len(l.queue) == 0 &&
			!l.poisoned {
			return
		}
		e := fp.New()
		e.Line(a, rn)
		e.Int(l.state)
		e.Node(l.owner, rn)
		e.Nodes(l.sharers, rn)
		e.Bool(l.busy)
		e.Bool(l.poisoned)
		e.Node(l.copyBackFrom, rn)
		e.Node(l.pendingReq, rn)
		e.Msgs(l.queue, rn)
		lines.Add(e)
	})
	h.Bag(lines)
	h.Nodes(d.dead, rn)
}
