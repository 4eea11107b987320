package hostproto

import (
	"fmt"
	"io"
	"sort"

	"c3/internal/cache"
	"c3/internal/fp"
	"c3/internal/mem"
)

// DumpState writes a readable rendering of all architectural state for
// the hang watchdog's reports. Map iteration is sorted so equal states
// dump identically.
func (l *L1) DumpState(w io.Writer) {
	fmt.Fprintf(w, "L1[%d]", l.id)
	dumpCache(w, l.c)
	var lines []mem.LineAddr
	for a := range l.reqs {
		lines = append(lines, a)
	}
	sortLines(lines)
	for _, a := range lines {
		t := l.reqs[a]
		fmt.Fprintf(w, "R%x:%v:%d:%v:%d:%d;", uint64(a), t.wantM, len(t.ops), t.invalidated,
			t.opsAtInv, len(t.stalledSnps))
	}
	lines = lines[:0]
	for a := range l.evs {
		lines = append(lines, a)
	}
	sortLines(lines)
	for _, a := range lines {
		t := l.evs[a]
		fmt.Fprintf(w, "E%x:%d:%v;", uint64(a), t.state, t.data)
	}
	fmt.Fprintf(w, "d%d\n", len(l.deferred))
}

// Fingerprint writes the L1's state into the model checker's state hash,
// with line addresses renamed by rn. The node id is left out: the
// checker hashes L1s in canonical slot order. Stale payloads are left
// out, and when skipInvalid is set (the caller has proven set conflicts
// impossible) so are frames invalidated back to state I, merging
// "invalid frame present" with "frame absent": the protocol treats both
// as a miss.
func (l *L1) Fingerprint(h *fp.Hasher, rn fp.Renamer, skipInvalid bool) {
	l.c.Fingerprint(h, rn, skipInvalid)
	var reqs fp.Bag
	for a, t := range l.reqs {
		e := fp.New()
		e.Line(a, rn)
		e.Bool(t.wantM)
		e.Int(len(t.ops))
		e.Bool(t.invalidated)
		e.Int(t.opsAtInv)
		e.Int(len(t.stalledSnps))
		reqs.Add(e)
	}
	h.Bag(reqs)
	var evs fp.Bag
	for a, t := range l.evs {
		e := fp.New()
		e.Line(a, rn)
		e.Int(t.state)
		e.Data(&t.data)
		evs.Add(e)
	}
	h.Bag(evs)
	h.Int(len(l.deferred))
}

// DumpState for RCC caches.
func (l *RCCL1) DumpState(w io.Writer) {
	fmt.Fprintf(w, "RCC[%d]", l.id)
	dumpCache(w, l.c)
	var lines []mem.LineAddr
	for a := range l.mask {
		lines = append(lines, a)
	}
	sortLines(lines)
	for _, a := range lines {
		fmt.Fprintf(w, "m%x:%x;", uint64(a), l.mask[a])
	}
	lines = lines[:0]
	for a := range l.pend {
		lines = append(lines, a)
	}
	sortLines(lines)
	for _, a := range lines {
		fmt.Fprintf(w, "p%x:%d;", uint64(a), len(l.pend[a].ops))
	}
	if l.cur != nil {
		fmt.Fprintf(w, "cur:%d:%d:%d;", l.cur.kind, l.cur.stage, l.cur.pendingAcks)
	}
	fmt.Fprintf(w, "q%d\n", len(l.seqQueue))
}

func dumpCache(w io.Writer, c *cache.Cache) {
	type ent struct {
		a mem.LineAddr
		s int
		d mem.Data
		v bool
	}
	var es []ent
	c.ForEachRO(func(e *cache.Entry) {
		es = append(es, ent{e.Addr, e.State, e.Data, e.DataValid})
	})
	sort.Slice(es, func(i, j int) bool { return es[i].a < es[j].a })
	for _, e := range es {
		fmt.Fprintf(w, "c%x:%d:%v:%v;", uint64(e.a), e.s, e.d, e.v)
	}
}

func sortLines(ls []mem.LineAddr) {
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
}
