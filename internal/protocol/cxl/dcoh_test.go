package cxl

import (
	"testing"

	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
)

// scriptHost is a minimal CXL host endpoint for driving the DCOH.
type scriptHost struct {
	id  msg.NodeID
	k   *sim.Kernel
	net *network.Network
	got []*msg.Msg
	// autoRsp answers snoops automatically when set.
	autoRsp func(h *scriptHost, m *msg.Msg)
	// onCmpWr runs when a CmpWr arrives (for staged WB-then-respond).
	onCmpWr func(h *scriptHost, m *msg.Msg)
}

func (h *scriptHost) Recv(m *msg.Msg) {
	h.got = append(h.got, m)
	if h.autoRsp != nil && (m.Type == msg.BISnpInv || m.Type == msg.BISnpData) {
		h.autoRsp(h, m)
	}
	if h.onCmpWr != nil && m.Type == msg.CmpWr {
		h.onCmpWr(h, m)
	}
}

func (h *scriptHost) send(m *msg.Msg) {
	m.Src = h.id
	h.net.Send(m)
}

func (h *scriptHost) last(t *testing.T, want msg.Type) *msg.Msg {
	t.Helper()
	if len(h.got) == 0 {
		t.Fatalf("host %d: no messages, want %v", h.id, want)
	}
	m := h.got[len(h.got)-1]
	if m.Type != want {
		t.Fatalf("host %d: last = %v, want %v", h.id, m, want)
	}
	return m
}

func setup(t *testing.T) (*sim.Kernel, *network.Network, *DCOH, *scriptHost, *scriptHost) {
	t.Helper()
	k := &sim.Kernel{}
	net := network.New(k, 7)
	dram := mem.NewDRAM(k, mem.DefaultDRAMConfig())
	d := New(100, k, net, dram)
	h1 := &scriptHost{id: 1, k: k, net: net}
	h2 := &scriptHost{id: 2, k: k, net: net}
	net.Register(100, d)
	net.Register(1, h1)
	net.Register(2, h2)
	net.Connect(1, 100, network.CrossCluster())
	net.Connect(2, 100, network.CrossCluster())
	return k, net, d, h1, h2
}

const lineA = mem.LineAddr(0x1000)

func TestColdReadGrantsExclusive(t *testing.T) {
	k, _, d, h1, _ := setup(t)
	var v mem.Data
	v.SetWord(0, 77)
	d.DRAM().Poke(lineA, v)

	h1.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	m := h1.last(t, msg.CmpE)
	if m.Data.Word(0) != 77 {
		t.Fatalf("CmpE data = %d, want 77", m.Data.Word(0))
	}
	st, owner, _ := d.StateOf(lineA)
	if st != "E" || owner != 1 {
		t.Fatalf("dir state = %s owner %d, want E owner 1", st, owner)
	}
}

func TestColdRdAGrantsM(t *testing.T) {
	k, _, d, h1, _ := setup(t)
	h1.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h1.last(t, msg.CmpM)
	st, owner, _ := d.StateOf(lineA)
	if st != "M" || owner != 1 {
		t.Fatalf("dir state = %s owner %d, want M owner 1", st, owner)
	}
}

func TestSecondReaderSharesViaSnoop(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	// h1 takes exclusive; it answers the BISnpData with the paper's
	// 6-message dirty flow: CXL WB (MemWr,S) first, wait for CmpWr, and
	// only then send the snoop response — WB travels on the unordered
	// request channel, so responding early would race it.
	h1.autoRsp = func(h *scriptHost, m *msg.Msg) {
		var dd mem.Data
		dd.SetWord(0, 42)
		h.send(&msg.Msg{Type: msg.MemWrS, Addr: m.Addr, Dst: 100, VNet: msg.VReq,
			Data: msg.WithData(dd), Dirty: true})
	}
	h1.onCmpWr = func(h *scriptHost, m *msg.Msg) {
		h.send(&msg.Msg{Type: msg.BISnpRspS, Addr: m.Addr, Dst: 100, VNet: msg.VRsp})
	}
	h1.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h1.last(t, msg.CmpM)

	h2.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	m := h2.last(t, msg.CmpS)
	if m.Data.Word(0) != 42 {
		t.Fatalf("reader got %d, want 42 (dirty data via CXL WB)", m.Data.Word(0))
	}
	st, _, sharers := d.StateOf(lineA)
	if st != "S" || len(sharers) != 2 {
		t.Fatalf("dir = %s %v, want S with 2 sharers", st, sharers)
	}
	if peekWord(d, lineA, 0) != 42 {
		t.Fatal("device memory not updated by CXL WB")
	}
}

func TestWriterInvalidatesSharers(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	h1.autoRsp = func(h *scriptHost, m *msg.Msg) {
		h.send(&msg.Msg{Type: msg.BISnpRspI, Addr: m.Addr, Dst: 100, VNet: msg.VRsp})
	}
	// Both hosts read (h1 first gets E, downgrades on h2's read).
	h1.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h2.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h2.last(t, msg.CmpS)

	// Now h2 wants ownership: h1 must be snooped.
	h2.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h2.last(t, msg.CmpM)
	st, owner, _ := d.StateOf(lineA)
	if st != "M" || owner != 2 {
		t.Fatalf("dir = %s owner %d, want M owner 2", st, owner)
	}
	saw := false
	for _, m := range h1.got {
		if m.Type == msg.BISnpInv {
			saw = true
		}
	}
	if !saw {
		t.Fatal("h1 never snooped")
	}
}

func TestDirtyEvictionWriteback(t *testing.T) {
	k, _, d, h1, _ := setup(t)
	h1.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	var v mem.Data
	v.SetWord(3, 9)
	h1.send(&msg.Msg{Type: msg.MemWrI, Addr: lineA, Dst: 100, VNet: msg.VReq,
		Data: msg.WithData(v), Dirty: true})
	k.Run(nil)
	h1.last(t, msg.CmpWr)
	st, _, _ := d.StateOf(lineA)
	if st != "I" {
		t.Fatalf("dir = %s after MemWrI, want I", st)
	}
	if peekWord(d, lineA, 3) != 9 {
		t.Fatal("writeback data lost")
	}
}

func TestStaleWritebackDropped(t *testing.T) {
	k, _, d, h1, _ := setup(t)
	var v mem.Data
	v.SetWord(0, 5)
	d.DRAM().Poke(lineA, v)
	// h1 never owned the line; its MemWrI must be acked but ignored.
	var stale mem.Data
	stale.SetWord(0, 99)
	h1.send(&msg.Msg{Type: msg.MemWrI, Addr: lineA, Dst: 100, VNet: msg.VReq,
		Data: msg.WithData(stale), Dirty: true})
	k.Run(nil)
	h1.last(t, msg.CmpWr)
	if peekWord(d, lineA, 0) != 5 {
		t.Fatal("stale writeback clobbered memory")
	}
}

func TestConflictAckImmediateEvenWhenBusy(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	// h1 owns; h2 requests ownership; h1 withholds its snoop response so
	// the line stays busy, then sends BIConflict.
	h1.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h2.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil) // h1 now holds an unanswered BISnpInv; line busy
	if !d.Busy(lineA) {
		t.Fatal("line should be busy awaiting snoop response")
	}
	h1.send(&msg.Msg{Type: msg.BIConflict, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h1.last(t, msg.BIConflictAck)
	if d.Stats.Conflicts != 1 {
		t.Fatalf("Conflicts = %d, want 1", d.Stats.Conflicts)
	}
}

func TestRequestsQueueBehindBusyLine(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	h1.autoRsp = func(h *scriptHost, m *msg.Msg) {
		// Delay the response to widen the busy window.
		h.k.After(500, func() {
			h.send(&msg.Msg{Type: msg.BISnpRspI, Addr: m.Addr, Dst: 100, VNet: msg.VRsp})
		})
	}
	h1.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	// Two racing requests from h2: the second queues.
	h2.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	h2.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	if d.Stats.Stalls == 0 {
		t.Fatal("expected at least one stalled request")
	}
	// Both must eventually complete: CmpM then CmpS/CmpE.
	var types []msg.Type
	for _, m := range h2.got {
		types = append(types, m.Type)
	}
	foundM := false
	for _, ty := range types {
		if ty == msg.CmpM {
			foundM = true
		}
	}
	if !foundM {
		t.Fatalf("h2 responses %v missing CmpM", types)
	}
}

func TestSnoopMissFallsBackToMemory(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	var v mem.Data
	v.SetWord(0, 31)
	d.DRAM().Poke(lineA, v)
	// h1 takes E then silently drops; it answers the snoop with a clean
	// miss (no data).
	h1.autoRsp = func(h *scriptHost, m *msg.Msg) {
		h.send(&msg.Msg{Type: msg.BISnpRspI, Addr: m.Addr, Dst: 100, VNet: msg.VRsp})
	}
	h1.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h1.last(t, msg.CmpE)

	h2.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	m := h2.last(t, msg.CmpS)
	if m.Data.Word(0) != 31 {
		t.Fatalf("fallback read got %d, want 31", m.Data.Word(0))
	}
}

func peekWord(d *DCOH, a mem.LineAddr, w int) uint64 {
	v := d.DRAM().Peek(a)
	return v.Word(w)
}

// --- host-crash reclamation ---

func TestReclaimExclusiveOwnerPoisons(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	h1.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h1.last(t, msg.CmpM)

	rec := d.ReclaimHost(1)
	k.Run(nil)
	if rec.Reclaimed == 0 {
		t.Fatalf("Reclaim = %+v: the M owner was not scrubbed", rec)
	}
	if rec.Poisoned != 1 || len(rec.PoisonedLines) != 1 || rec.PoisonedLines[0] != lineA {
		t.Fatalf("Reclaim = %+v: the dead owner's M line must poison", rec)
	}
	if !d.PoisonedLine(lineA) {
		t.Fatal("PoisonedLine lost the record")
	}
	if d.ReferencesHost(1) {
		t.Fatal("isolation invariant: directory still names the dead host")
	}
	st, owner, _ := d.StateOf(lineA)
	if st != "I" || owner != msg.None {
		t.Fatalf("post-reclaim state %s/%d, want I/none", st, owner)
	}

	// A surviving reader still gets a grant — flagged poisoned, with
	// whatever stale bytes device memory holds.
	h2.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	if m := h2.last(t, msg.CmpE); !m.Poisoned {
		t.Fatal("grant of a crash-lost line must carry the poison flag")
	}
}

func TestReclaimSharerScrubbedNoPoison(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	var v mem.Data
	v.SetWord(0, 7)
	d.DRAM().Poke(lineA, v)
	h1.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	// h1 holds E-clean; it answers h2's snoop by downgrading to sharer.
	h1.autoRsp = func(h *scriptHost, m *msg.Msg) {
		h.send(&msg.Msg{Type: msg.BISnpRspS, Addr: m.Addr, Dst: 100, VNet: msg.VRsp})
	}
	h2.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h2.last(t, msg.CmpS)

	rec := d.ReclaimHost(1)
	k.Run(nil)
	if rec.Reclaimed == 0 || rec.Poisoned != 0 {
		t.Fatalf("Reclaim = %+v: want sharer scrub, no poison (h2 still holds a copy)", rec)
	}
	if d.ReferencesHost(1) {
		t.Fatal("isolation invariant: dead sharer still recorded")
	}
	// The surviving copy stays readable and clean.
	if d.PoisonedLine(lineA) {
		t.Fatal("a shared-clean line must not poison when one sharer dies")
	}
}

func TestReclaimUnblocksWaiterOnDeadOwner(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	h1.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h1.last(t, msg.CmpM)

	// h1 never answers snoops (it is about to be declared dead); h2's
	// read wedges with a pending snoop to h1.
	h2.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	if !d.Busy(lineA) {
		t.Fatal("scenario broken: h2's read should be blocked on h1's snoop")
	}

	rec := d.ReclaimHost(1)
	k.Run(nil)
	if rec.Poisoned != 1 {
		t.Fatalf("Reclaim = %+v: owner died with the only copy", rec)
	}
	// The waiter must complete rather than hang — with the poison flag.
	if m := h2.last(t, msg.CmpE); !m.Poisoned {
		t.Fatal("unblocked waiter's grant must be poisoned")
	}
	if d.Busy(lineA) {
		t.Fatal("transaction still open after reclamation")
	}
	if d.ReferencesHost(1) {
		t.Fatal("isolation invariant violated after unblock")
	}
}

func TestReclaimAbortsDeadRequestor(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	var v mem.Data
	v.SetWord(0, 3)
	d.DRAM().Poke(lineA, v)
	h2.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h2.last(t, msg.CmpE)

	// h1 requests the line h2 owns; h2 stays silent so the transaction is
	// in flight when h1 dies.
	h1.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	rec := d.ReclaimHost(1)
	// h2's snoop response arrives after the declaration.
	h2.send(&msg.Msg{Type: msg.BISnpRspS, Addr: lineA, Dst: 100, VNet: msg.VRsp})
	k.Run(nil)
	if rec.NAKed != 1 {
		t.Fatalf("Reclaim = %+v: the dead requestor's transaction must be NAKed", rec)
	}
	if d.Busy(lineA) {
		t.Fatal("aborted transaction still open")
	}
	if d.ReferencesHost(1) {
		t.Fatal("isolation invariant: aborted requestor still recorded")
	}
	// Nothing was lost: h2 kept its copy, no poison.
	if d.PoisonedLine(lineA) {
		t.Fatal("aborting a dead requestor must not poison the line")
	}
}

// TestAbortedRequestorIsNotAReference: between ReclaimHost and the
// surviving snoop response, the dead host's transaction is still open
// but already NAKed. It must not count as a reference to the dead host,
// or the isolation invariant fails whenever it is checked before the
// transaction retires.
func TestAbortedRequestorIsNotAReference(t *testing.T) {
	k, _, d, h1, h2 := setup(t)
	h2.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	h2.last(t, msg.CmpE)
	h1.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	d.ReclaimHost(1)
	k.Run(nil)
	if !d.Busy(lineA) {
		t.Fatal("the aborted transaction should stay open until h2 answers its snoop")
	}
	if d.ReferencesHost(1) {
		t.Fatal("isolation invariant: the NAKed requestor of an open transaction counted as a reference")
	}
	if !d.ReferencesHost(2) {
		t.Fatal("the surviving owner must still be referenced")
	}
}

func TestReviveHostReadmitsCold(t *testing.T) {
	k, _, d, h1, _ := setup(t)
	h1.send(&msg.Msg{Type: msg.MemRdA, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	d.ReclaimHost(1)
	k.Run(nil)
	// Dead host's messages are dropped...
	h1.got = nil
	h1.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	if len(h1.got) != 0 {
		t.Fatalf("dead host got %v", h1.got)
	}
	// ...until revived; then it reads again (poison is sticky).
	d.ReviveHost(1)
	h1.send(&msg.Msg{Type: msg.MemRdS, Addr: lineA, Dst: 100, VNet: msg.VReq})
	k.Run(nil)
	if m := h1.last(t, msg.CmpE); !m.Poisoned {
		t.Fatal("revived host must still see sticky poison")
	}
}
