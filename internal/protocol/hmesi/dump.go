package hmesi

import (
	"fmt"
	"io"
	"sort"

	"c3/internal/fp"
	"c3/internal/mem"
	"c3/internal/msg"
)

// DumpState writes a readable rendering of the directory for the hang
// watchdog's reports, lines in address order.
func (d *Dir) DumpState(w io.Writer) {
	fmt.Fprint(w, "HDIR")
	var lines []mem.LineAddr
	for a := range d.lines {
		lines = append(lines, a)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, a := range lines {
		l := d.lines[a]
		fmt.Fprintf(w, "%x:%d:%d:%v:%v:%d:%d:q%d;", uint64(a), l.state, l.owner,
			l.sharers, l.busy, l.copyBackFrom, l.pendingReq, len(l.queue))
	}
	fmt.Fprintln(w)
}

// Fingerprint writes the directory into the model checker's state hash,
// with line addresses and host ids renamed by rn. Untouched default
// lines are left out, so "never referenced" and "referenced then fully
// released" merge. lastFwdFrom stays out too: it is a crash-recovery
// breadcrumb, not protocol-visible state.
func (d *Dir) Fingerprint(h *fp.Hasher, rn fp.Renamer) {
	var lines fp.Bag
	for a, l := range d.lines {
		if l.state == hI && l.owner == msg.None && l.sharers.Empty() && !l.busy &&
			l.copyBackFrom == msg.None && l.pendingReq == msg.None && len(l.queue) == 0 {
			continue
		}
		e := fp.New()
		e.Line(a, rn)
		e.Int(l.state)
		e.Node(l.owner, rn)
		e.Nodes(l.sharers, rn)
		e.Bool(l.busy)
		e.Node(l.copyBackFrom, rn)
		e.Node(l.pendingReq, rn)
		e.Int(len(l.queue))
		lines.Add(e)
	}
	h.Bag(lines)
}
