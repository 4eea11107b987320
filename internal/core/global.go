package core

import (
	"fmt"

	"c3/internal/cache"
	"c3/internal/gen"
	"c3/internal/msg"
	"c3/internal/ssp"
)

func (c *C3) isCXL() bool { return c.table.Global.Params.ConflictHandshake }

func (c *C3) snpTrig(t msg.Type) gen.Trigger {
	acc, ok := c.table.SnpAccess[t]
	if !ok {
		panic(fmt.Sprintf("core: %v is not a snoop of %s", t, c.table.Global.Name))
	}
	if acc == ssp.AccLoad {
		return gen.TrigSnpLoad
	}
	return gen.TrigSnpStore
}

// globalSnoop routes an incoming device snoop: fresh service, conflict
// handshake, nested service, stall, or eviction-race response, depending
// on the line's transaction state.
func (c *C3) globalSnoop(m *msg.Msg) {
	t := c.tbes.Get(m.Addr)
	if t == nil {
		c.freshSnoop(m)
		return
	}
	switch {
	case t.kind == tLocal && t.ph == phGlobal:
		if c.isCXL() {
			// Fig. 2: a snoop racing our pending request — we cannot know
			// the directory's serialization order, so handshake.
			if t.conflict != nil {
				panic("core: second snoop during an unresolved conflict")
			}
			t.conflict = m
			c.Stats.Conflicts++
			c.sendGlobal(&msg.Msg{Type: msg.BIConflict, Addr: m.Addr, VNet: msg.VReq})
			return
		}
		// Hierarchical MESI: a GInv means the directory serialized the
		// other request first — serve it nested now. A forward means we
		// are the destined owner: stall it until our data arrives.
		if m.Type == msg.GInv {
			c.serveSubSnoop(t, m)
			return
		}
		c.Stats.Stalled++
		t.stalled = append(t.stalled, m)
	case t.kind == tEvict && !c.isCXL():
		// The directory forwarded to us while our writeback is in
		// flight: answer from the eviction buffer (the directory will
		// absorb our GPut as the copy-back).
		c.hmesiEvictRace(t, m)
	default:
		// Rule II: nested flow in progress; the snoop waits its turn.
		c.Stats.Stalled++
		t.stalled = append(t.stalled, m)
	}
}

// freshSnoop serves a device snoop with no transaction in flight: the
// table names the conceptual access and the nested local flow.
func (c *C3) freshSnoop(m *msg.Msg) {
	ent := c.table.Lookup(c.snpTrig(m.Type), c.lclass(m.Addr), c.gclass(m.Addr))
	c.Stats.SnoopsServed++
	t := c.tbes.Put(m.Addr)
	*t = tbe{addr: m.Addr, kind: tSnoop, entry: ent, snp: m, ph: phLocal}
	if c.startLocalFlow(t, ent.Plan, msg.None) {
		return
	}
	c.snoopLocalDone(t)
}

// snoopLocalDone: host copies reclaimed (or none existed); commit the
// local transition and respond globally.
func (c *C3) snoopLocalDone(t *tbe) {
	c.applySnoopLocal(t, t.entry)
	if c.isCXL() {
		c.cxlSnoopRespond(t)
	} else {
		c.hmesiSnoopRespond(t)
	}
}

// cxlSnoopRespond implements the CXL response flows of Fig. 2: a dirty
// line performs the CXL WB sequence (MemWr -> CmpWr) before the snoop
// response; a clean line responds immediately and the DCOH falls back to
// device memory.
func (c *C3) cxlSnoopRespond(t *tbe) {
	e := c.llc.Probe(t.addr)
	dirty := t.absorbDirty || (e != nil && e.State == gM)
	if dirty && e != nil && e.DataValid {
		wb := msg.MemWrI
		if t.snp.Type == msg.BISnpData {
			wb = msg.MemWrS // retain our (about-to-be-shared) copy
		}
		c.Stats.Writebacks++
		c.sendGlobal(&msg.Msg{Type: wb, Addr: t.addr, VNet: msg.VReq,
			Data: msg.WithData(e.Data), Dirty: true, Poisoned: e.Poisoned})
		t.ph = phWB
		return
	}
	c.finishCXLSnoopRsp(t)
}

func (c *C3) finishCXLSnoopRsp(t *tbe) {
	e := c.llc.Probe(t.addr)
	ty := msg.BISnpRspI
	if t.snp.Type == msg.BISnpData && e != nil && t.entry.Next.G != ssp.ClsI {
		ty = msg.BISnpRspS
	}
	c.sendGlobal(&msg.Msg{Type: ty, Addr: t.addr, VNet: msg.VRsp})
	var preState string
	if c.Tracer != nil {
		preState = c.compoundState(t.addr)
	}
	c.commitSnoopG(t)
	if c.Tracer != nil {
		c.traceCommit(t.addr, preState, "snoop "+t.snp.Type.String())
	}
	c.retire(t)
}

func (c *C3) commitSnoopG(t *tbe) {
	e := c.llc.Probe(t.addr)
	if e == nil {
		return
	}
	if t.entry.Next.G == ssp.ClsI {
		c.removeLine(e)
	} else {
		e.State = gcode(t.entry.Next.G)
	}
}

func (c *C3) removeLine(e *cache.Entry) {
	c.dirs.Delete(e.Addr)
	c.llc.Remove(e)
}

// hmesiSnoopRespond: peer-to-peer data per the 3-hop protocol.
func (c *C3) hmesiSnoopRespond(t *tbe) {
	e := c.llc.Probe(t.addr)
	var preState string
	if c.Tracer != nil {
		preState = c.compoundState(t.addr)
	}
	switch t.snp.Type {
	case msg.GFwdGetM:
		if e == nil || !e.DataValid {
			panic("core: GFwdGetM without data")
		}
		c.sendGlobal(&msg.Msg{Type: msg.GDataM, Addr: t.addr, Dst: t.snp.Req,
			VNet: msg.VRsp, Data: msg.WithData(e.Data), Poisoned: e.Poisoned})
		c.removeLine(e)
	case msg.GFwdGetS:
		if e == nil || !e.DataValid {
			panic("core: GFwdGetS without data")
		}
		c.sendGlobal(&msg.Msg{Type: msg.GDataS, Addr: t.addr, Dst: t.snp.Req,
			VNet: msg.VRsp, Data: msg.WithData(e.Data), Poisoned: e.Poisoned})
		c.sendGlobal(&msg.Msg{Type: msg.GCopyBack, Addr: t.addr, VNet: msg.VReq,
			Data: msg.WithData(e.Data), Poisoned: e.Poisoned})
		e.State = gS
	case msg.GInv:
		c.sendGlobal(&msg.Msg{Type: msg.GInvAck, Addr: t.addr, Dst: t.snp.Req,
			VNet: msg.VRsp})
		if e != nil {
			c.removeLine(e)
		}
	}
	if c.Tracer != nil {
		c.traceCommit(t.addr, preState, "snoop "+t.snp.Type.String())
	}
	c.retire(t)
}

// hmesiEvictRace answers a forward that crossed our in-flight writeback.
func (c *C3) hmesiEvictRace(t *tbe, m *msg.Msg) {
	switch m.Type {
	case msg.GFwdGetM:
		c.sendGlobal(&msg.Msg{Type: msg.GDataM, Addr: m.Addr, Dst: m.Req,
			VNet: msg.VRsp, Data: msg.WithData(t.evData)})
	case msg.GFwdGetS:
		c.sendGlobal(&msg.Msg{Type: msg.GDataS, Addr: m.Addr, Dst: m.Req,
			VNet: msg.VRsp, Data: msg.WithData(t.evData)})
	case msg.GInv:
		c.sendGlobal(&msg.Msg{Type: msg.GInvAck, Addr: m.Addr, Dst: m.Req,
			VNet: msg.VRsp})
	}
}

// --- completions ---

// cxlCmp handles CmpS/CmpE/CmpM.
func (c *C3) cxlCmp(m *msg.Msg) {
	t := c.tbes.Get(m.Addr)
	if t == nil || t.kind != tLocal {
		panic(fmt.Sprintf("core: C3 %d completion with no request TBE: %v", c.cfg.ID, m))
	}
	if t.conflict != nil {
		// The handshake is in flight; the FIFO channel guarantees the
		// ack follows — request-first order.
		t.heldCmp = m
		return
	}
	if t.ph != phGlobal {
		panic("core: completion outside global wait")
	}
	c.completeAcquire(t, m)
}

// cmpWr handles CmpWr and GPutAck: completion of a writeback, either a
// snoop's nested CXL WB or an eviction.
func (c *C3) cmpWr(m *msg.Msg) {
	t := c.tbes.Get(m.Addr)
	if t == nil {
		panic(fmt.Sprintf("core: C3 %d CmpWr with no TBE: %v", c.cfg.ID, m))
	}
	switch {
	case t.kind == tSnoop && t.ph == phWB:
		c.finishCXLSnoopRsp(t)
	case t.kind == tEvict && t.ph == phWB:
		c.retire(t)
	default:
		panic(fmt.Sprintf("core: CmpWr in odd state kind=%d ph=%d", t.kind, t.ph))
	}
}

// cxlConflictAck resolves the Fig. 2 handshake: if a completion already
// arrived (FIFO before this ack), the directory serialized our request
// first — finish it, then serve the snoop fresh. Otherwise the snoop was
// first — serve it nested inside the wait.
func (c *C3) cxlConflictAck(m *msg.Msg) {
	t := c.tbes.Get(m.Addr)
	if t == nil || t.conflict == nil {
		panic(fmt.Sprintf("core: BIConflictAck with no handshake: %v", m))
	}
	snp := t.conflict
	t.conflict = nil
	if t.heldCmp != nil {
		cmp := t.heldCmp
		t.heldCmp = nil
		c.completeAcquire(t, cmp) // grants and retires
		c.k.After(1, func() { c.Recv(snp) })
		return
	}
	c.Stats.ConflictsDirFirst++
	c.serveSubSnoop(t, snp)
}

// serveSubSnoop runs a device snoop nested within our own pending
// acquire (directory-first serialization).
func (c *C3) serveSubSnoop(t *tbe, snp *msg.Msg) {
	ent := c.table.Lookup(c.snpTrig(snp.Type), c.lclass(t.addr), c.gclass(t.addr))
	c.Stats.SnoopsServed++
	t.snp = snp
	t.subEntry = ent
	t.ph = phSubSnoop
	if c.startLocalFlow(t, ent.Plan, msg.None) {
		return
	}
	c.finishSubSnoop(t)
}

// finishSubSnoop responds to the nested snoop and returns to waiting.
// Our global rights during a wait are at most clean (we were acquiring),
// so no writeback can be needed.
func (c *C3) finishSubSnoop(t *tbe) {
	c.applySnoopLocal(t, t.subEntry)
	e := c.llc.Probe(t.addr)
	if e != nil && e.State == gM {
		panic("core: dirty line while acquiring")
	}
	if c.isCXL() {
		ty := msg.BISnpRspI
		if t.snp.Type == msg.BISnpData && t.subEntry.Next.G != ssp.ClsI {
			ty = msg.BISnpRspS
		}
		c.sendGlobal(&msg.Msg{Type: ty, Addr: t.addr, VNet: msg.VRsp})
	} else {
		c.sendGlobal(&msg.Msg{Type: msg.GInvAck, Addr: t.addr, Dst: t.snp.Req,
			VNet: msg.VRsp})
	}
	// Roll the global class, but keep the frame: it is reserved for the
	// completion of our still-pending acquire.
	if e != nil {
		e.State = gcode(t.subEntry.Next.G)
		if t.subEntry.Next.G == ssp.ClsI {
			e.DataValid = false
		}
	}
	t.snp = nil
	t.ph = phGlobal
	// A pipelined H-MESI completion may have landed mid-snoop.
	c.maybeCompleteHmesi(t)
}

// completeAcquire commits a finished global acquire and runs the
// residual local flow before granting.
func (c *C3) completeAcquire(t *tbe, m *msg.Msg) {
	e := c.llc.Probe(t.addr)
	if e == nil {
		panic("core: completion with no reserved frame")
	}
	switch m.Type {
	case msg.CmpM, msg.GDataM:
		e.State = gM
	case msg.CmpE, msg.GDataE:
		e.State = gE
		t.grantE = true
	case msg.CmpS, msg.GData, msg.GDataS:
		e.State = gS
	default:
		panic(fmt.Sprintf("core: odd completion %v", m))
	}
	if m.Data != nil {
		e.Data = *m.Data
		e.DataValid = true
	} else if !e.DataValid {
		panic("core: permission-only completion without cached data")
	}
	if m.Poisoned {
		// Sticky, line-granular: a poisoned completion (retry exhaustion
		// or crash-lost copy) taints the frame until the line is dropped.
		e.Poisoned = true
	}
	t.ph = phLocal
	if c.startLocalFlow(t, t.entry.Plan, t.req.Src) {
		return
	}
	c.grant(t)
}

// --- hierarchical-MESI completion plumbing ---

func (c *C3) hmesiData(m *msg.Msg) {
	t := c.tbes.Get(m.Addr)
	if t == nil || t.kind != tLocal {
		// A duplicate peer response from an eviction race; the bytes are
		// identical to what we already received — drop.
		return
	}
	t.haveData = true
	t.heldCmp = m
	t.acksKnown = true
	if m.Type == msg.GDataM {
		t.needAcks = m.Acks
	}
	c.maybeCompleteHmesi(t)
}

func (c *C3) hmesiInvAck(m *msg.Msg) {
	t := c.tbes.Get(m.Addr)
	if t == nil || t.kind != tLocal {
		panic(fmt.Sprintf("core: GInvAck with no request TBE: %v", m))
	}
	t.haveAcks++
	c.maybeCompleteHmesi(t)
}

func (c *C3) maybeCompleteHmesi(t *tbe) {
	if c.isCXL() || t.ph != phGlobal {
		return
	}
	if !t.haveData || !t.acksKnown || t.haveAcks < t.needAcks {
		return
	}
	cmp := t.heldCmp
	t.heldCmp = nil
	c.completeAcquire(t, cmp)
}
