package cxl

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
func (d *DCOH) DumpState(w io.Writer) {
	fmt.Fprint(w, "DCOH")
	var lines []mem.LineAddr
	for a := range d.lines {
		lines = append(lines, a)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, a := range lines {
		l := d.lines[a]
		fmt.Fprintf(w, "%x:%d:%d:%v", uint64(a), l.state, l.owner, l.sharers)
		if l.cur != nil {
			fmt.Fprintf(w, ":tx%d:%v:%v", l.cur.req.Src, l.cur.pending, l.cur.dirty)
		}
		fmt.Fprintf(w, ":q%d;", len(l.queue))
	}
	fmt.Fprintln(w)
}

// Fingerprint writes the directory into the model checker's state hash,
// with line addresses and host ids renamed by rn. Untouched default
// lines (invalid, unowned, no transaction, empty queue) are left out, so
// "never referenced" and "referenced then fully released" merge.
func (d *DCOH) Fingerprint(h *fp.Hasher, rn fp.Renamer) {
	var lines fp.Bag
	for a, l := range d.lines {
		if l.state == dI && l.owner == msg.None && l.sharers.Empty() && l.cur == nil &&
			len(l.queue) == 0 {
			continue
		}
		e := fp.New()
		e.Line(a, rn)
		e.Int(l.state)
		e.Node(l.owner, rn)
		e.Nodes(l.sharers, rn)
		e.Bool(l.cur != nil)
		if l.cur != nil {
			e.Node(l.cur.req.Src, rn)
			e.Nodes(l.cur.pending, rn)
			e.Bool(l.cur.dirty)
		}
		e.Int(len(l.queue))
		lines.Add(e)
	}
	h.Bag(lines)
}
