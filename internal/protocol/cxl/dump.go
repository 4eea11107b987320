package cxl

import (
	"fmt"
	"io"

	"c3/internal/fp"
	"c3/internal/mem"
	"c3/internal/msg"
)

// DumpState writes a readable rendering of the directory for the hang
// watchdog's reports, lines in address order.
func (d *DCOH) DumpState(w io.Writer) {
	fmt.Fprint(w, "DCOH")
	for _, a := range d.lines.Lines(nil) {
		l := d.lines.Peek(a)
		fmt.Fprintf(w, "%x:%d:%d:%v", uint64(a), l.state, l.owner, l.sharers)
		if l.busy() {
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
	d.lines.ForEachRO(func(a mem.LineAddr, l *dline) {
		if l.state == dI && l.owner == msg.None && l.sharers.Empty() && !l.busy() &&
			len(l.queue) == 0 {
			return
		}
		e := fp.New()
		e.Line(a, rn)
		e.Int(l.state)
		e.Node(l.owner, rn)
		e.Nodes(l.sharers, rn)
		e.Bool(l.busy())
		if l.busy() {
			e.Node(l.cur.req.Src, rn)
			e.Nodes(l.cur.pending, rn)
			e.Bool(l.cur.dirty)
		}
		e.Int(len(l.queue))
		lines.Add(e)
	})
	h.Bag(lines)
}
