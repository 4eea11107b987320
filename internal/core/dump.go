package core

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"c3/internal/cache"
	"c3/internal/fp"
	"c3/internal/gen"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/ssp"
)

// DumpState writes a readable rendering of the controller state for the
// hang watchdog's reports. Read-only: it uses the RO cache accessors, so
// dumping a freshly cloned snapshot never materializes its slab.
func (c *C3) DumpState(w io.Writer) {
	fmt.Fprintf(w, "C3[%d]", c.cfg.ID)
	type ent struct {
		a mem.LineAddr
		s int
		d mem.Data
		v bool
	}
	var es []ent
	c.llc.ForEachRO(func(e *cache.Entry) {
		es = append(es, ent{e.Addr, e.State, e.Data, e.DataValid})
	})
	sort.Slice(es, func(i, j int) bool { return es[i].a < es[j].a })
	for _, e := range es {
		fmt.Fprintf(w, "l%x:%d:%v:%v;", uint64(e.a), e.s, e.d, e.v)
	}
	lines := c.dirs.Lines(nil)
	for _, a := range lines {
		d := c.dirs.Peek(a)
		fmt.Fprintf(w, "d%x:%s:%d:%d:%v;", uint64(a), d.class, d.owner, d.fwd, d.sharers)
	}
	for _, a := range c.tbes.Lines(lines[:0]) {
		t := c.tbes.Peek(a)
		fmt.Fprintf(w, "t%x:%d:%d:%d:%d:%v:%v:%d:%d:%d;", uint64(a), t.kind, t.ph,
			t.pendingRsp, t.pendingAcks, t.conflict != nil, t.heldCmp != nil,
			t.haveAcks, t.needAcks, len(t.stalled))
	}
	fmt.Fprintln(w)
}

// Fingerprint writes the C3's state into the model checker's state hash,
// with line addresses and host ids renamed by rn. Stale LLC payloads are
// left out, and so are pure default entries: an untouched local
// directory line, or (when skipInvalid allows) an LLC frame invalidated
// back to state 0, so "absent" and "present but reset" merge. The
// controller's own id is left out: C3s are per-cluster, never permute,
// and the checker hashes them in a fixed order. A TBE hashes whole but
// for what no transition reads: the sub-snoop's table entry outside
// phSubSnoop (serveSubSnoop sets it afresh) and the eviction data of a
// TBE that is not an eviction (always zero).
func (c *C3) Fingerprint(h *fp.Hasher, rn fp.Renamer, skipInvalid bool) {
	c.llc.Fingerprint(h, rn, skipInvalid, false)
	initial := c.initialLocal()
	var dirs fp.Bag
	c.dirs.ForEachRO(func(a mem.LineAddr, d *ldir) {
		if d.class == initial && d.owner == msg.None && d.fwd == msg.None && d.sharers.Empty() {
			return
		}
		e := fp.New()
		e.Line(a, rn)
		e.String(string(d.class))
		e.Node(d.owner, rn)
		e.Node(d.fwd, rn)
		e.Nodes(d.sharers, rn)
		dirs.Add(e)
	})
	h.Bag(dirs)
	var tbes fp.Bag
	c.tbes.ForEachRO(func(a mem.LineAddr, t *tbe) {
		e := fp.New()
		e.Line(a, rn)
		flags := uint64(t.kind) | uint64(t.ph)<<8
		for i, b := range [...]bool{t.absorbDirty, t.haveData, t.acksKnown, t.grantE, t.evValid} {
			if b {
				flags |= 1 << (16 + i)
			}
		}
		e.Word(flags)
		e.Int(t.pendingRsp)
		e.Int(t.pendingAcks)
		e.Int(t.needAcks)
		e.Int(t.haveAcks)
		fingerprintEntry(&e, &t.entry)
		if t.ph == phSubSnoop {
			fingerprintEntry(&e, &t.subEntry)
		}
		if t.kind == tEvict {
			e.Data(&t.evData)
		}
		e.MaybeMsg(t.req, rn)
		e.MaybeMsg(t.snp, rn)
		e.MaybeMsg(t.conflict, rn)
		e.MaybeMsg(t.heldCmp, rn)
		e.MaybeMsg(t.resume, rn)
		e.Msgs(t.stalled, rn)
		tbes.Add(e)
	})
	h.Bag(tbes)
}

// fingerprintEntry writes a compound-table entry: its operations in one
// word, then its next compound state. Transient is a display name and
// stays out.
func fingerprintEntry(h *fp.Hasher, e *gen.Entry) {
	h.Word(uint64(e.XAccess) | uint64(e.GlobalOp)<<8 | uint64(e.Plan)<<16 | uint64(e.Grant)<<24)
	h.String(string(e.Next.L))
	h.String(string(e.Next.G))
}

// CompoundOf reports the stable compound state of a line (local class,
// global class) and whether a transaction is in flight — the hook the
// model checker uses to assert that Rule I's forbidden state pairs are
// never reachable.
func (c *C3) CompoundOf(a mem.LineAddr) (l, g ssp.Class, busy bool) {
	return c.lclass(a), c.gclass(a), c.tbes.Peek(a) != nil
}

// Lines lists every line the controller currently tracks.
func (c *C3) Lines() []mem.LineAddr {
	out := c.dirs.Lines(nil)
	c.llc.ForEachRO(func(e *cache.Entry) { out = append(out, e.Addr) })
	slices.Sort(out)
	return slices.Compact(out)
}

// OwnerView reports the local directory's owner and sharer view, for
// cross-checking inclusion in tests.
func (c *C3) OwnerView(a mem.LineAddr) (owner msg.NodeID, sharers []msg.NodeID) {
	d := c.dirs.Peek(a)
	if d == nil {
		return msg.None, nil
	}
	return d.owner, d.sharers.IDs()
}

// LLCData returns the CXL-cache copy of a line if data-valid.
func (c *C3) LLCData(a mem.LineAddr) (mem.Data, bool) {
	if e := c.llc.ProbeRO(a); e != nil && e.DataValid {
		return e.Data, true
	}
	return mem.Data{}, false
}
