package core

import (
	"fmt"
	"io"
	"sort"

	"c3/internal/cache"
	"c3/internal/fp"
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
	var lines []mem.LineAddr
	for a := range c.dirs {
		lines = append(lines, a)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, a := range lines {
		d := c.dirs[a]
		fmt.Fprintf(w, "d%x:%s:%d:%d:%v;", uint64(a), d.class, d.owner, d.fwd, d.sharers)
	}
	lines = lines[:0]
	for a := range c.tbes {
		lines = append(lines, a)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, a := range lines {
		t := c.tbes[a]
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
// and the checker hashes them in a fixed order.
func (c *C3) Fingerprint(h *fp.Hasher, rn fp.Renamer, skipInvalid bool) {
	c.llc.Fingerprint(h, rn, skipInvalid)
	initial := c.initialLocal()
	var dirs fp.Bag
	for a, d := range c.dirs {
		if d.class == initial && d.owner == msg.None && d.fwd == msg.None && d.sharers.Empty() {
			continue
		}
		e := fp.New()
		e.Line(a, rn)
		e.String(string(d.class))
		e.Node(d.owner, rn)
		e.Node(d.fwd, rn)
		e.Nodes(d.sharers, rn)
		dirs.Add(e)
	}
	h.Bag(dirs)
	var tbes fp.Bag
	for a, t := range c.tbes {
		e := fp.New()
		e.Line(a, rn)
		e.Int(int(t.kind))
		e.Int(int(t.ph))
		e.Int(t.pendingRsp)
		e.Int(t.pendingAcks)
		e.Bool(t.conflict != nil)
		e.Bool(t.heldCmp != nil)
		e.Int(t.haveAcks)
		e.Int(t.needAcks)
		e.Int(len(t.stalled))
		tbes.Add(e)
	}
	h.Bag(tbes)
}

// CompoundOf reports the stable compound state of a line (local class,
// global class) and whether a transaction is in flight — the hook the
// model checker uses to assert that Rule I's forbidden state pairs are
// never reachable.
func (c *C3) CompoundOf(a mem.LineAddr) (l, g ssp.Class, busy bool) {
	return c.lclass(a), c.gclass(a), c.tbes[a] != nil
}

// Lines lists every line the controller currently tracks.
func (c *C3) Lines() []mem.LineAddr {
	seen := map[mem.LineAddr]bool{}
	c.llc.ForEachRO(func(e *cache.Entry) { seen[e.Addr] = true })
	for a := range c.dirs {
		seen[a] = true
	}
	var out []mem.LineAddr
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OwnerView reports the local directory's owner and sharer view, for
// cross-checking inclusion in tests.
func (c *C3) OwnerView(a mem.LineAddr) (owner msg.NodeID, sharers []msg.NodeID) {
	d := c.dirs[a]
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
