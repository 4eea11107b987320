package core

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"c3/internal/cache"
	"c3/internal/gen"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/sim"
	"c3/internal/ssp"
)

// loopback is a minimal fabric that records sends and can replay them
// into registered ports, letting the controller be unit-tested without a
// timed network.
type loopback struct {
	sent  []*msg.Msg
	ports map[msg.NodeID]interface{ Recv(*msg.Msg) }
}

func newLoopback() *loopback {
	return &loopback{ports: map[msg.NodeID]interface{ Recv(*msg.Msg) }{}}
}

func (l *loopback) Send(m *msg.Msg) { l.sent = append(l.sent, m) }

func (l *loopback) take() []*msg.Msg {
	s := l.sent
	l.sent = nil
	return s
}

func (l *loopback) find(t *testing.T, ty msg.Type) *msg.Msg {
	t.Helper()
	for _, m := range l.sent {
		if m.Type == ty {
			return m
		}
	}
	t.Fatalf("no %v among %v", ty, l.sent)
	return nil
}

func mustTable(t *testing.T, local, global string) *gen.Table {
	t.Helper()
	ls, _ := ssp.Local(local)
	gs, _ := ssp.Global(global)
	tab, err := gen.Generate(ls, gs)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

const (
	dirID = msg.NodeID(1)
	c3ID  = msg.NodeID(2)
	l1A   = msg.NodeID(10)
	l1B   = msg.NodeID(11)
	lineX = mem.LineAddr(0x4000)
)

func newC3(t *testing.T, local, global string) (*C3, *loopback, *sim.Kernel) {
	t.Helper()
	k := &sim.Kernel{}
	fab := newLoopback()
	c := New(Config{
		ID: c3ID, GlobalDir: dirID, Kernel: k,
		LocalNet: fab, GlobalNet: fab,
		Table: mustTable(t, local, global), LLCSize: 8192, LLCWays: 2, Lat: 1,
	})
	return c, fab, k
}

func drain(k *sim.Kernel) { k.RunLimit(100_000) }

// TestResetRecyclesLLC: a rejoin's Reset hands the old CXL-cache slab
// back to the pool, so resets of a Table III 4 MiB LLC reuse slabs
// instead of allocating one each. The budget of half a slab per reset
// leaves room for the race detector, under which sync.Pool drops a
// random quarter of its Puts.
func TestResetRecyclesLLC(t *testing.T) {
	fab := newLoopback()
	c := New(Config{
		ID: c3ID, GlobalDir: dirID, Kernel: &sim.Kernel{},
		LocalNet: fab, GlobalNet: fab, Table: mustTable(t, "mesi", "cxl"),
	})
	slab := uint64(c.LLC().Sets()*c.LLC().Ways()) * uint64(unsafe.Sizeof(cache.Entry{}))
	const resets = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < resets; i++ {
		c.LLC().Install(lineX).State = gM
		c.Reset()
	}
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, resets*slab/2; got >= budget {
		t.Fatalf("%d resets allocated %d B, want < %d B (half a %d B slab each)", resets, got, budget, slab)
	}
	if c.LLC().Count() != 0 {
		t.Fatal("Reset left lines in the CXL cache")
	}
}

func TestColdGetSDelegates(t *testing.T) {
	c, fab, k := newC3(t, "mesi", "cxl")
	c.Recv(&msg.Msg{Type: msg.GetS, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	m := fab.find(t, msg.MemRdS)
	if m.Dst != dirID {
		t.Fatalf("MemRd,S to %d, want dir", m.Dst)
	}
	if c.Stats.Delegations != 1 {
		t.Fatalf("Delegations = %d", c.Stats.Delegations)
	}
	// Completion grants; CmpE yields a local E grant (GrantE upgrade).
	fab.take()
	var d mem.Data
	d.SetWord(0, 9)
	c.Recv(&msg.Msg{Type: msg.CmpE, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	g := fab.find(t, msg.DataE)
	if g.Dst != l1A || g.Data.Word(0) != 9 {
		t.Fatalf("grant wrong: %v", g)
	}
	l, gc, busy := c.CompoundOf(lineX)
	if l != ssp.ClsM || gc != ssp.ClsE || busy {
		t.Fatalf("compound = (%s,%s) busy=%v, want (M,E) idle", l, gc, busy)
	}
}

func TestLocalServeAfterFill(t *testing.T) {
	c, fab, k := newC3(t, "mesi", "cxl")
	// Fill the line via A.
	c.Recv(&msg.Msg{Type: msg.GetS, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	var d mem.Data
	c.Recv(&msg.Msg{Type: msg.CmpS, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	fab.take()
	// B's GetS is now locally satisfiable — no new global traffic.
	c.Recv(&msg.Msg{Type: msg.GetS, Addr: lineX, Src: l1B, VNet: msg.VReq})
	drain(k)
	for _, m := range fab.sent {
		if m.Type == msg.MemRdS || m.Type == msg.MemRdA {
			t.Fatalf("unexpected delegation: %v", m)
		}
	}
	fab.find(t, msg.DataS)
}

func TestGetMInvalidatesLocalSharers(t *testing.T) {
	c, fab, k := newC3(t, "mesi", "cxl")
	// A and B both share the line (via one delegation + one local serve).
	c.Recv(&msg.Msg{Type: msg.GetS, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	var d mem.Data
	c.Recv(&msg.Msg{Type: msg.CmpS, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	c.Recv(&msg.Msg{Type: msg.GetS, Addr: lineX, Src: l1B, VNet: msg.VReq})
	drain(k)
	fab.take()

	// A upgrades: global AcqM; after CmpM, B must be invalidated before
	// the grant (Rule II nesting).
	c.Recv(&msg.Msg{Type: msg.GetM, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	fab.find(t, msg.MemRdA)
	fab.take()
	c.Recv(&msg.Msg{Type: msg.CmpM, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	inv := fab.find(t, msg.Inv)
	if inv.Dst != l1B {
		t.Fatalf("Inv to %d, want B", inv.Dst)
	}
	// No grant until B acks.
	for _, m := range fab.sent {
		if m.Type == msg.DataM {
			t.Fatal("granted before invalidation completed")
		}
	}
	c.Recv(&msg.Msg{Type: msg.InvAck, Addr: lineX, Src: l1B, VNet: msg.VRsp})
	drain(k)
	g := fab.find(t, msg.DataM)
	if g.Dst != l1A {
		t.Fatalf("DataM to %d", g.Dst)
	}
}

func TestSnoopStoreReclaimsOwnerWithCXLWB(t *testing.T) {
	c, fab, k := newC3(t, "mesi", "cxl")
	// A owns the line dirty.
	c.Recv(&msg.Msg{Type: msg.GetM, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	var d mem.Data
	c.Recv(&msg.Msg{Type: msg.CmpM, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	fab.take()

	// Device snoop: BISnpInv must pull the line from A, write it back
	// (the 6-message flow), then respond BISnpRsp-I.
	c.Recv(&msg.Msg{Type: msg.BISnpInv, Addr: lineX, Src: dirID, VNet: msg.VSnp})
	drain(k)
	snp := fab.find(t, msg.SnpInv)
	if snp.Dst != l1A {
		t.Fatalf("SnpInv to %d", snp.Dst)
	}
	fab.take()
	var dirty mem.Data
	dirty.SetWord(0, 77)
	c.Recv(&msg.Msg{Type: msg.SnpRspInv, Addr: lineX, Src: l1A, VNet: msg.VRsp,
		Data: &dirty, Dirty: true})
	drain(k)
	wb := fab.find(t, msg.MemWrI)
	if wb.Data.Word(0) != 77 {
		t.Fatal("writeback lost the dirty data")
	}
	// The snoop response comes only after CmpWr.
	for _, m := range fab.sent {
		if m.Type == msg.BISnpRspI {
			t.Fatal("responded before the CXL WB completed")
		}
	}
	fab.take()
	c.Recv(&msg.Msg{Type: msg.CmpWr, Addr: lineX, Src: dirID, VNet: msg.VRsp})
	drain(k)
	fab.find(t, msg.BISnpRspI)
	l, g, _ := c.CompoundOf(lineX)
	if l != ssp.ClsI || g != ssp.ClsI {
		t.Fatalf("compound after snoop = (%s,%s), want (I,I)", l, g)
	}
}

func TestConflictHandshakeRequestFirst(t *testing.T) {
	c, fab, k := newC3(t, "mesi", "cxl")
	c.Recv(&msg.Msg{Type: msg.GetM, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	fab.take()
	// A snoop races our pending MemRdA: handshake starts.
	c.Recv(&msg.Msg{Type: msg.BISnpInv, Addr: lineX, Src: dirID, VNet: msg.VSnp})
	drain(k)
	fab.find(t, msg.BIConflict)
	if c.Stats.Conflicts != 1 {
		t.Fatalf("Conflicts = %d", c.Stats.Conflicts)
	}
	fab.take()
	// Completion arrives before the ack: request-first. Grant, then the
	// snoop is served fresh (invalidating what was just granted).
	var d mem.Data
	c.Recv(&msg.Msg{Type: msg.CmpM, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	if len(fab.take()) != 0 {
		t.Fatal("nothing should happen until the handshake resolves")
	}
	c.Recv(&msg.Msg{Type: msg.BIConflictAck, Addr: lineX, Src: dirID, VNet: msg.VRsp})
	drain(k)
	fab.find(t, msg.DataM)  // the grant completed first
	fab.find(t, msg.SnpInv) // then the snoop reclaims from A
}

func TestConflictHandshakeSnoopFirst(t *testing.T) {
	c, fab, k := newC3(t, "mesi", "cxl")
	c.Recv(&msg.Msg{Type: msg.GetM, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	fab.take()
	c.Recv(&msg.Msg{Type: msg.BISnpInv, Addr: lineX, Src: dirID, VNet: msg.VSnp})
	drain(k)
	fab.take()
	// Ack arrives with no completion: directory-first. We respond to the
	// snoop now (nothing held locally: clean miss) and keep waiting.
	c.Recv(&msg.Msg{Type: msg.BIConflictAck, Addr: lineX, Src: dirID, VNet: msg.VRsp})
	drain(k)
	fab.find(t, msg.BISnpRspI)
	_, _, busy := c.CompoundOf(lineX)
	if !busy {
		t.Fatal("acquire should still be pending")
	}
	fab.take()
	var d mem.Data
	c.Recv(&msg.Msg{Type: msg.CmpM, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	fab.find(t, msg.DataM)
}

func TestRuleIIStallsSameLine(t *testing.T) {
	c, fab, k := newC3(t, "mesi", "cxl")
	c.Recv(&msg.Msg{Type: msg.GetS, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	fab.take()
	// B's request to the same line stalls behind the TBE.
	c.Recv(&msg.Msg{Type: msg.GetS, Addr: lineX, Src: l1B, VNet: msg.VReq})
	drain(k)
	if c.Stats.Stalled != 1 {
		t.Fatalf("Stalled = %d, want 1", c.Stats.Stalled)
	}
	var d mem.Data
	c.Recv(&msg.Msg{Type: msg.CmpS, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	// Both grants eventually go out.
	grants := 0
	for _, m := range fab.take() {
		if m.Type == msg.DataS || m.Type == msg.DataE {
			grants++
		}
	}
	if grants != 2 {
		t.Fatalf("%d grants, want 2", grants)
	}
}

func TestLocalPutBookkeeping(t *testing.T) {
	c, fab, k := newC3(t, "mesi", "cxl")
	c.Recv(&msg.Msg{Type: msg.GetM, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	var d mem.Data
	c.Recv(&msg.Msg{Type: msg.CmpM, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	fab.take()
	var dirty mem.Data
	dirty.SetWord(2, 5)
	c.Recv(&msg.Msg{Type: msg.PutM, Addr: lineX, Src: l1A, VNet: msg.VReq,
		Data: &dirty, Dirty: true})
	drain(k)
	fab.find(t, msg.PutAck)
	l, g, _ := c.CompoundOf(lineX)
	if l != ssp.ClsI || g != ssp.ClsM {
		t.Fatalf("compound after PutM = (%s,%s), want (I,M)", l, g)
	}
	if got, ok := c.LLCData(lineX); !ok || got.Word(2) != 5 {
		t.Fatal("LLC did not absorb the writeback data")
	}
	// A stale PutM from a non-owner is acked and ignored.
	fab.take()
	c.Recv(&msg.Msg{Type: msg.PutM, Addr: lineX, Src: l1B, VNet: msg.VReq,
		Data: &d, Dirty: true})
	drain(k)
	fab.find(t, msg.PutAck)
	if got, _ := c.LLCData(lineX); got.Word(2) != 5 {
		t.Fatal("stale PutM clobbered LLC data")
	}
}

func TestHMESISnoopPeerData(t *testing.T) {
	c, fab, k := newC3(t, "mesi", "hmesi")
	c.Recv(&msg.Msg{Type: msg.GetM, Addr: lineX, Src: l1A, VNet: msg.VReq})
	drain(k)
	fab.find(t, msg.GGetM)
	fab.take()
	var d mem.Data
	d.SetWord(0, 3)
	c.Recv(&msg.Msg{Type: msg.GDataM, Addr: lineX, Src: dirID, VNet: msg.VRsp, Data: &d})
	drain(k)
	fab.take()
	// A GFwdGetM for peer 9: reclaim locally, then peer-to-peer GDataM.
	c.Recv(&msg.Msg{Type: msg.GFwdGetM, Addr: lineX, Src: dirID, Req: 9, VNet: msg.VSnp})
	drain(k)
	fab.find(t, msg.SnpInv)
	fab.take()
	var dd mem.Data
	dd.SetWord(0, 4)
	c.Recv(&msg.Msg{Type: msg.SnpRspInv, Addr: lineX, Src: l1A, VNet: msg.VRsp,
		Data: &dd, Dirty: true})
	drain(k)
	g := fab.find(t, msg.GDataM)
	if g.Dst != 9 || g.Data.Word(0) != 4 {
		t.Fatalf("peer data wrong: %v", g)
	}
}

func TestRenderedTableMentionsStats(t *testing.T) {
	c, _, _ := newC3(t, "mesi", "cxl")
	if !strings.Contains(c.Table().Render(), "GetS") {
		t.Fatal("table render broken")
	}
	if c.ID() != c3ID || c.LLC() == nil {
		t.Fatal("accessors broken")
	}
}
