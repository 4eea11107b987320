package core

import (
	"fmt"

	"c3/internal/gen"
	"c3/internal/msg"
	"c3/internal/ssp"
)

// startLocalFlow issues the native local messages realizing plan (the
// conceptual cross-domain access of Rule I). It returns false when
// nothing needed to be sent (the flow is already complete). except is
// the host cache excluded from invalidations (the requestor).
func (c *C3) startLocalFlow(t *tbe, plan ssp.Plan, except msg.NodeID) bool {
	d := c.dir(t.addr)
	t.pendingRsp, t.pendingAcks = 0, 0
	switch plan {
	case ssp.PlanNone:
		return false
	case ssp.PlanInvSharers:
		d.sharers.ForEach(func(h msg.NodeID) {
			if h == except {
				return
			}
			t.pendingAcks++
			c.sendLocal(&msg.Msg{Type: msg.Inv, Addr: t.addr, Dst: h, VNet: msg.VSnp})
		})
	case ssp.PlanSnpOwner:
		target := d.owner
		if target == msg.None {
			target = d.fwd // MESIF: the designated forwarder responds
		}
		if target == msg.None || target == except {
			return false
		}
		t.pendingRsp++
		c.sendLocal(&msg.Msg{Type: msg.SnpData, Addr: t.addr, Dst: target, VNet: msg.VSnp})
	case ssp.PlanInvOwner:
		if d.owner == msg.None || d.owner == except {
			return false
		}
		t.pendingRsp++
		c.sendLocal(&msg.Msg{Type: msg.SnpInv, Addr: t.addr, Dst: d.owner, VNet: msg.VSnp})
	case ssp.PlanInvAll:
		if d.owner != msg.None && d.owner != except {
			t.pendingRsp++
			c.sendLocal(&msg.Msg{Type: msg.SnpInv, Addr: t.addr, Dst: d.owner, VNet: msg.VSnp})
		}
		d.sharers.ForEach(func(h msg.NodeID) {
			if h == except {
				return
			}
			t.pendingAcks++
			c.sendLocal(&msg.Msg{Type: msg.Inv, Addr: t.addr, Dst: h, VNet: msg.VSnp})
		})
	}
	return t.pendingRsp+t.pendingAcks > 0
}

// localRsp routes InvAck/SnpRsp* to the line's TBE.
func (c *C3) localRsp(m *msg.Msg) {
	t := c.tbes.Get(m.Addr)
	if t == nil {
		panic(fmt.Sprintf("core: C3 %d local response with no TBE: %v", c.cfg.ID, m))
	}
	switch m.Type {
	case msg.InvAck:
		t.pendingAcks--
	case msg.SnpRspData, msg.SnpRspInv:
		t.pendingRsp--
		if m.Data != nil {
			if e := c.llc.Probe(t.addr); e != nil {
				e.Data = *m.Data
				e.DataValid = true
				if m.Poisoned {
					e.Poisoned = true
				}
			}
			if m.Dirty {
				t.absorbDirty = true
			}
		}
	}
	if t.pendingRsp > 0 || t.pendingAcks > 0 {
		return
	}
	c.localFlowDone(t)
}

// localFlowDone fires when all local snoop responses and invalidation
// acks are in.
func (c *C3) localFlowDone(t *tbe) {
	switch {
	case t.kind == tLocal && t.ph == phLocal:
		c.grant(t)
	case t.kind == tLocal && t.ph == phSubSnoop:
		// A snoop served nested inside a global wait (conflict
		// resolution, dir-first order): respond globally, roll the
		// compound state, and keep waiting for our own completion.
		c.finishSubSnoop(t)
	case t.kind == tSnoop:
		c.snoopLocalDone(t)
	case t.kind == tEvict:
		c.evictReclaimed(t)
	default:
		panic(fmt.Sprintf("core: local flow done in odd state kind=%d ph=%d", t.kind, t.ph))
	}
}

// applySnoopLocal commits the local-side directory transition of a
// served device snoop.
func (c *C3) applySnoopLocal(t *tbe, ent gen.Entry) {
	d := c.dir(t.addr)
	nextL := ent.Next.L
	switch {
	case nextL == ssp.ClsI:
		d.owner, d.fwd = msg.None, msg.None
		d.sharers = 0
	case (nextL == ssp.ClsS || nextL == ssp.ClsF) && d.owner != msg.None && nextL != d.class:
		// Owner downgraded to sharer by a load snoop.
		d.sharers.Add(d.owner)
		if c.table.Local.Params.Forwarder {
			d.fwd = d.owner
		}
		d.owner = msg.None
	case nextL == ssp.ClsO:
		// Owner keeps the dirty line (MOESI).
	}
	d.class = nextL
}
