package core

import (
	"c3/internal/cache"
	"c3/internal/gen"
	"c3/internal/msg"
)

// evictFor frees a frame in resume's set (Fig. 7): reclaim host copies
// of the victim with a conceptual store, write dirty data back globally,
// then re-dispatch the request that needed the frame.
func (c *C3) evictFor(resume *msg.Msg) {
	victim := c.llc.VictimFunc(resume.Addr, func(e *cache.Entry) bool {
		return c.tbes.Peek(e.Addr) == nil
	})
	if victim == nil {
		// Every way is mid-transaction; retry shortly (transactions are
		// finite, so this always makes progress).
		c.Stats.Stalled++
		c.k.After(20, func() { c.Recv(resume) })
		return
	}
	c.Stats.Evictions++
	ent := c.table.Lookup(gen.TrigEvict, c.lclass(victim.Addr), gclassOf(victim.State))
	t := c.tbes.Put(victim.Addr)
	*t = tbe{addr: victim.Addr, kind: tEvict, entry: ent, ph: phLocal, resume: resume}
	if c.startLocalFlow(t, ent.Plan, msg.None) {
		return
	}
	c.evictReclaimed(t)
}

// evictReclaimed runs once host copies are reclaimed: the CXL-cache data
// is now authoritative; write it back if dirty (or if a silently-dirtied
// owner made it so), then release the frame.
func (c *C3) evictReclaimed(t *tbe) {
	e := c.llc.Probe(t.addr)
	if e == nil {
		panic("core: evicting a missing line")
	}
	if c.Tracer != nil {
		// Every evict path below ends with the line gone (I/I).
		c.Tracer.State(c.k.Now(), c.cfg.ID, t.addr, c.compoundState(t.addr), "I/I", "evict")
	}
	dirty := t.absorbDirty || e.State == gM
	t.evData = e.Data
	t.evValid = e.DataValid

	op := t.entry.GlobalOp
	if dirty && op != gen.GWBDirty {
		// A host owner dirtied a globally-clean (E) line silently; the
		// table's static entry could not know.
		op = gen.GWBDirty
	}
	if c.isLocalLine(t.addr) {
		// Hybrid configuration: the line's home is this cluster's local
		// memory; no global messages.
		if dirty {
			c.Stats.LocalMemWrites++
			data, a := e.Data, t.addr
			c.removeLine(e)
			t.ph = phWB
			c.cfg.LocalMem.Write(a, data, func() { c.retire(c.tbes.Get(a)) })
			return
		}
		c.removeLine(e)
		c.retire(t)
		return
	}
	switch op {
	case gen.GWBDirty:
		if !e.DataValid {
			panic("core: dirty eviction without valid data")
		}
		c.Stats.Writebacks++
		c.sendGlobal(&msg.Msg{Type: c.table.WBDirtyOp, Addr: t.addr, VNet: msg.VReq,
			Data: msg.WithData(e.Data), Dirty: true, Poisoned: e.Poisoned})
		c.removeLine(e)
		t.ph = phWB
	case gen.GWBClean:
		c.sendGlobal(&msg.Msg{Type: c.table.WBCleanOp, Addr: t.addr, VNet: msg.VReq})
		c.removeLine(e)
		t.ph = phWB
	default:
		// Silent clean eviction (CXL): just drop.
		c.removeLine(e)
		c.retire(t)
	}
}
