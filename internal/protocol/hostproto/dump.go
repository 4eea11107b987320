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
// the hang watchdog's reports, lines in address order, so equal states
// dump identically.
func (l *L1) DumpState(w io.Writer) {
	fmt.Fprintf(w, "L1[%d]", l.id)
	dumpCache(w, l.c)
	lines := l.reqs.Lines(nil)
	for _, a := range lines {
		t := l.reqs.Peek(a)
		fmt.Fprintf(w, "R%x:%v:%d:%v:%d:%d;", uint64(a), t.wantM, len(t.ops), t.invalidated,
			t.opsAtInv, len(t.stalledSnps))
	}
	for _, a := range l.evs.Lines(lines[:0]) {
		t := l.evs.Peek(a)
		fmt.Fprintf(w, "E%x:%d:%v;", uint64(a), t.state, t.data)
	}
	fmt.Fprintf(w, "d%d\n", len(l.deferred))
}

// Fingerprint writes the L1's state into the model checker's state hash,
// with line addresses renamed by rn: every frame with its payload (the
// L1 keeps no DataValid flag, and a frame reserved for a miss holds
// zeroes), the request TBEs with their queued ops and stalled snoops,
// the eviction TBEs and the deferred ops. The node id is left out: the
// checker hashes L1s in canonical slot order. So are the bookkeeping
// fields: start times, the ops' core tokens, and the statistics. When
// skipInvalid is set (the caller has proven set conflicts impossible),
// frames invalidated back to state 0 are left out too, merging "invalid
// frame present" with "frame absent": the protocol treats both as a
// miss.
func (l *L1) Fingerprint(h *fp.Hasher, rn fp.Renamer, skipInvalid bool) {
	l.c.Fingerprint(h, rn, skipInvalid, true)
	var reqs fp.Bag
	l.reqs.ForEachRO(func(a mem.LineAddr, t *reqTBE) {
		e := fp.New()
		e.Line(a, rn)
		var flags uint64
		if t.wantM {
			flags |= 1
		}
		if t.invalidated {
			flags |= 2
		}
		e.Word(flags | uint64(t.opsAtInv)<<2)
		fingerprintOps(&e, t.ops, rn)
		e.Msgs(t.stalledSnps, rn)
		reqs.Add(e)
	})
	h.Bag(reqs)
	var evs fp.Bag
	l.evs.ForEachRO(func(a mem.LineAddr, t *evictTBE) {
		e := fp.New()
		e.Line(a, rn)
		e.Int(t.state)
		e.Bool(t.poisoned)
		e.Data(&t.data)
		evs.Add(e)
	})
	h.Bag(evs)
	fingerprintOps(h, l.deferred, rn)
}

// fingerprintOps writes a list of queued core ops in order: its length,
// then each op's kind, annotations, address and value.
func fingerprintOps(h *fp.Hasher, ops []pendingOp, rn fp.Renamer) {
	h.Int(len(ops))
	for i := range ops {
		r := &ops[i].req
		w := uint64(r.Kind)
		if r.Acq {
			w |= 1 << 8
		}
		if r.Rel {
			w |= 1 << 9
		}
		h.Word(w)
		h.Addr(r.Addr, rn)
		h.Word(r.Val)
	}
}

// DumpState for RCC caches.
func (l *RCCL1) DumpState(w io.Writer) {
	fmt.Fprintf(w, "RCC[%d]", l.id)
	dumpCache(w, l.c)
	lines := l.mask.Lines(nil)
	for _, a := range lines {
		fmt.Fprintf(w, "m%x:%x;", uint64(a), *l.mask.Peek(a))
	}
	for _, a := range l.pend.Lines(lines[:0]) {
		fmt.Fprintf(w, "p%x:%d;", uint64(a), len(l.pend.Peek(a).ops))
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
