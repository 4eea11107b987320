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
// with line addresses and host ids renamed by rn: each line's state,
// owner, sharers and poison flag, its open transaction whole (the
// request, the pending and kept-shared sets, the collected data and its
// dirty flag, and the abort flag), and its queued requests in order;
// then the set of isolated hosts. Untouched default lines (invalid,
// unowned, no transaction, empty queue, not poisoned) are left out, so
// "never referenced" and "referenced then fully released" merge. A
// transaction's data is hashed only once a dirty response set it.
func (d *DCOH) Fingerprint(h *fp.Hasher, rn fp.Renamer) {
	var lines fp.Bag
	d.lines.ForEachRO(func(a mem.LineAddr, l *dline) {
		if l.state == dI && l.owner == msg.None && l.sharers.Empty() && !l.busy() &&
			len(l.queue) == 0 && !l.poisoned {
			return
		}
		e := fp.New()
		e.Line(a, rn)
		e.Int(l.state)
		e.Node(l.owner, rn)
		e.Nodes(l.sharers, rn)
		e.Bool(l.poisoned)
		e.Bool(l.busy())
		if cur := &l.cur; l.busy() {
			e.Msg(cur.req, rn)
			e.Nodes(cur.pending, rn)
			e.Nodes(cur.keptS, rn)
			e.Bool(cur.aborted)
			e.Bool(cur.dirty)
			if cur.dirty {
				e.Data(&cur.data)
			}
		}
		e.Msgs(l.queue, rn)
		lines.Add(e)
	})
	h.Bag(lines)
	h.Nodes(d.dead, rn)
}
