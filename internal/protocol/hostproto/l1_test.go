package hostproto

import (
	"testing"

	"c3/internal/cpu"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/sim"
)

// fakeDir records messages sent by the L1 and lets tests reply.
type fakeDir struct {
	sent []*msg.Msg
}

func (f *fakeDir) Send(m *msg.Msg) { f.sent = append(f.sent, m) }

func (f *fakeDir) take() []*msg.Msg {
	s := f.sent
	f.sent = nil
	return s
}

func (f *fakeDir) find(t *testing.T, ty msg.Type) *msg.Msg {
	t.Helper()
	for _, m := range f.sent {
		if m.Type == ty {
			return m
		}
	}
	t.Fatalf("no %v among %v", ty, f.sent)
	return nil
}

const (
	dirID = msg.NodeID(1)
	l1ID  = msg.NodeID(10)
	lineX = mem.LineAddr(0x4000)
	addrX = mem.Addr(0x4008) // word 1 of lineX
)

func newTestL1(t *testing.T, v Variant) (*L1, *fakeDir, *sim.Kernel) {
	t.Helper()
	k := &sim.Kernel{}
	dir := &fakeDir{}
	l1 := NewL1(l1ID, dirID, k, dir, Config{Variant: v, SizeBytes: 2048, Ways: 2, HitLatency: 1})
	return l1, dir, k
}

func data(w int, v uint64) *mem.Data {
	var d mem.Data
	d.SetWord(w, v)
	return &d
}

func drain(k *sim.Kernel) { k.RunLimit(100_000) }

func TestLoadMissFillHit(t *testing.T) {
	l1, dir, k := newTestL1(t, MESI)
	var got uint64
	var missed bool
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(r cpu.Response) {
		got, missed = r.Val, r.Missed
	})
	drain(k)
	dir.find(t, msg.GetS)
	l1.Recv(&msg.Msg{Type: msg.DataS, Addr: lineX, Src: dirID, Data: data(1, 42)})
	drain(k)
	if got != 42 || !missed {
		t.Fatalf("fill load got %d missed=%v", got, missed)
	}
	// Second load hits.
	missed = true
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(r cpu.Response) {
		got, missed = r.Val, r.Missed
	})
	drain(k)
	if got != 42 || missed {
		t.Fatalf("hit load got %d missed=%v", got, missed)
	}
	if l1.Accesses != 2 || l1.Misses != 1 {
		t.Fatalf("stats %d/%d", l1.Accesses, l1.Misses)
	}
}

func TestSilentEtoMUpgrade(t *testing.T) {
	l1, dir, k := newTestL1(t, MESI)
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataE, Addr: lineX, Src: dirID, Data: data(1, 1)})
	drain(k)
	dir.take()
	// Store hits E silently: no GetM.
	done := false
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 9}, func(cpu.Response) { done = true })
	drain(k)
	if !done {
		t.Fatal("store on E should complete locally")
	}
	if len(dir.sent) != 0 {
		t.Fatalf("unexpected traffic: %v", dir.sent)
	}
	// The dirty data is surrendered on SnpInv.
	l1.Recv(&msg.Msg{Type: msg.SnpInv, Addr: lineX, Src: dirID})
	drain(k)
	rsp := dir.find(t, msg.SnpRspInv)
	if !rsp.Dirty || rsp.Data.Word(1) != 9 {
		t.Fatalf("snoop response wrong: %v", rsp)
	}
	if l1.Cache().Probe(lineX) != nil {
		t.Fatal("line should be invalidated")
	}
}

func TestUpgradeFromShared(t *testing.T) {
	l1, dir, k := newTestL1(t, MESI)
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataS, Addr: lineX, Src: dirID, Data: data(1, 1)})
	drain(k)
	dir.take()
	var stDone bool
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 2}, func(cpu.Response) { stDone = true })
	drain(k)
	dir.find(t, msg.GetM)
	if stDone {
		t.Fatal("store completed without ownership")
	}
	l1.Recv(&msg.Msg{Type: msg.DataM, Addr: lineX, Src: dirID, Data: data(1, 1)})
	drain(k)
	if !stDone {
		t.Fatal("store not completed after DataM")
	}
	if e := l1.Cache().Probe(lineX); e == nil || e.State != stM || e.Data.Word(1) != 2 {
		t.Fatalf("post-upgrade entry: %+v", e)
	}
}

func TestQueuedOpsRideOneTransaction(t *testing.T) {
	l1, dir, k := newTestL1(t, MESI)
	vals := map[int]uint64{}
	for i := 0; i < 3; i++ {
		i := i
		a := lineX.Addr() + mem.Addr(i*8)
		l1.Access(cpu.Request{Kind: cpu.Load, Addr: a}, func(r cpu.Response) { vals[i] = r.Val })
	}
	drain(k)
	if n := len(dir.take()); n != 1 {
		t.Fatalf("%d requests sent, want 1 (coalesced)", n)
	}
	var d mem.Data
	d.SetWord(0, 10)
	d.SetWord(1, 11)
	d.SetWord(2, 12)
	l1.Recv(&msg.Msg{Type: msg.DataS, Addr: lineX, Src: dirID, Data: &d})
	drain(k)
	if vals[0] != 10 || vals[1] != 11 || vals[2] != 12 {
		t.Fatalf("queued loads: %v", vals)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	l1, dir, k := newTestL1(t, MESI) // 2048 B = 32 lines, 16 sets x 2 ways
	// Fill two ways of one set dirty, then force a third line in.
	mk := func(i int) mem.LineAddr { return mem.LineAddr(0x4000 + i*16*64) } // same set
	for i := 0; i < 2; i++ {
		l1.Access(cpu.Request{Kind: cpu.Store, Addr: mk(i).Addr(), Val: uint64(i)}, func(cpu.Response) {})
		drain(k)
		l1.Recv(&msg.Msg{Type: msg.DataM, Addr: mk(i), Src: dirID, Data: data(0, 0)})
		drain(k)
	}
	dir.take()
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: mk(2).Addr()}, func(cpu.Response) {})
	drain(k)
	put := dir.find(t, msg.PutM)
	if put.Data == nil {
		t.Fatal("PutM must carry data")
	}
	dir.find(t, msg.GetS)
	// PutAck retires the evict TBE.
	l1.Recv(&msg.Msg{Type: msg.PutAck, Addr: put.Addr, Src: dirID})
	drain(k)
	if l1.evs.Peek(put.Addr) != nil {
		t.Fatal("evict TBE not retired")
	}
}

func TestMOESIOwnerKeepsDirtyOnSnpData(t *testing.T) {
	l1, dir, k := newTestL1(t, MOESI)
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 5}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataM, Addr: lineX, Src: dirID, Data: data(1, 0)})
	drain(k)
	dir.take()
	l1.Recv(&msg.Msg{Type: msg.SnpData, Addr: lineX, Src: dirID})
	drain(k)
	rsp := dir.find(t, msg.SnpRspData)
	if !rsp.Dirty || rsp.Data.Word(1) != 5 {
		t.Fatalf("MOESI snoop response: %v", rsp)
	}
	if e := l1.Cache().Probe(lineX); e == nil || e.State != stO {
		t.Fatalf("MOESI owner should hold O, got %+v", e)
	}
	// Eviction of O uses PutO with data.
	dir.take()
	l1.evictEntry(l1.Cache().Probe(lineX))
	drain(k)
	put := dir.find(t, msg.PutO)
	if put.Data.Word(1) != 5 {
		t.Fatal("PutO lost data")
	}
}

func TestMESIFillBecomesForwarder(t *testing.T) {
	l1, dir, k := newTestL1(t, MESIF)
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataS, Addr: lineX, Src: dirID, Data: data(1, 7)})
	drain(k)
	if e := l1.Cache().Probe(lineX); e == nil || e.State != stF {
		t.Fatalf("MESIF shared fill should land in F, got %+v", e)
	}
	// The forwarder answers SnpData clean and demotes to S.
	dir.take()
	l1.Recv(&msg.Msg{Type: msg.SnpData, Addr: lineX, Src: dirID})
	drain(k)
	rsp := dir.find(t, msg.SnpRspData)
	if rsp.Dirty || rsp.Data.Word(1) != 7 {
		t.Fatalf("forwarder response: %v", rsp)
	}
	if e := l1.Cache().Probe(lineX); e.State != stS {
		t.Fatalf("forwarder should demote to S, got %s", stateName(e.State))
	}
}

func TestRMWNeedsOwnership(t *testing.T) {
	l1, dir, k := newTestL1(t, MESI)
	var old uint64
	l1.Access(cpu.Request{Kind: cpu.RMWAdd, Addr: addrX, Val: 3}, func(r cpu.Response) { old = r.Val })
	drain(k)
	dir.find(t, msg.GetM)
	l1.Recv(&msg.Msg{Type: msg.DataM, Addr: lineX, Src: dirID, Data: data(1, 10)})
	drain(k)
	if old != 10 {
		t.Fatalf("RMW old = %d, want 10", old)
	}
	if e := l1.Cache().Probe(lineX); e.Data.Word(1) != 13 {
		t.Fatalf("RMW result = %d, want 13", e.Data.Word(1))
	}
}

func TestInvDuringFillIsUseOnce(t *testing.T) {
	l1, dir, k := newTestL1(t, MESI)
	var got uint64
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(r cpu.Response) { got = r.Val })
	drain(k)
	dir.take()
	// The Inv overtakes the grant: ack immediately, then the fill serves
	// the queued load once and dies.
	l1.Recv(&msg.Msg{Type: msg.Inv, Addr: lineX, Src: dirID})
	drain(k)
	dir.find(t, msg.InvAck)
	l1.Recv(&msg.Msg{Type: msg.DataS, Addr: lineX, Src: dirID, Data: data(1, 33)})
	drain(k)
	if got != 33 {
		t.Fatalf("use-once load got %d", got)
	}
	if l1.Cache().Probe(lineX) != nil {
		t.Fatal("use-once fill must not install")
	}
}

func TestPrefetchWarmsOwnership(t *testing.T) {
	l1, dir, k := newTestL1(t, MESI)
	l1.Access(cpu.Request{Kind: cpu.Prefetch, Addr: addrX}, func(cpu.Response) {})
	drain(k)
	dir.find(t, msg.GetM)
	l1.Recv(&msg.Msg{Type: msg.DataM, Addr: lineX, Src: dirID, Data: data(1, 0)})
	drain(k)
	dir.take()
	done := false
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 1}, func(cpu.Response) { done = true })
	drain(k)
	if !done || len(dir.sent) != 0 {
		t.Fatal("store after prefetch should hit locally")
	}
	// Prefetches don't pollute access stats.
	if l1.Accesses != 1 {
		t.Fatalf("Accesses = %d, want 1", l1.Accesses)
	}
}

func TestVariantString(t *testing.T) {
	if MESI.String() != "MESI" || MOESI.String() != "MOESI" || MESIF.String() != "MESIF" {
		t.Fatal("variant stringers")
	}
}

func TestSnpInvDuringEviction(t *testing.T) {
	// The evict TBE answers snoops that cross its Put in flight.
	l1, dir, k := newTestL1(t, MESI)
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 4}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataM, Addr: lineX, Src: dirID, Data: data(1, 0)})
	drain(k)
	dir.take()
	l1.evictEntry(l1.Cache().Probe(lineX))
	drain(k)
	dir.find(t, msg.PutM)
	dir.take()
	// The directory's SnpInv crosses the PutM.
	l1.Recv(&msg.Msg{Type: msg.SnpInv, Addr: lineX, Src: dirID})
	drain(k)
	rsp := dir.find(t, msg.SnpRspInv)
	if !rsp.Dirty || rsp.Data.Word(1) != 4 {
		t.Fatalf("evict TBE snoop response: %v", rsp)
	}
	// The stale PutAck still retires the TBE.
	l1.Recv(&msg.Msg{Type: msg.PutAck, Addr: lineX, Src: dirID})
	drain(k)
	if l1.evs.Peek(lineX) != nil {
		t.Fatal("evict TBE leaked")
	}
}

func TestSnpDataDuringEvictionDemotes(t *testing.T) {
	l1, dir, k := newTestL1(t, MESI)
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 4}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataM, Addr: lineX, Src: dirID, Data: data(1, 0)})
	drain(k)
	dir.take()
	l1.evictEntry(l1.Cache().Probe(lineX))
	drain(k)
	dir.take()
	l1.Recv(&msg.Msg{Type: msg.SnpData, Addr: lineX, Src: dirID})
	drain(k)
	rsp := dir.find(t, msg.SnpRspData)
	if !rsp.Dirty || rsp.Data.Word(1) != 4 {
		t.Fatalf("evict TBE SnpData response: %v", rsp)
	}
	// A later Inv (now a "shared" evictor) gets a plain ack.
	dir.take()
	l1.Recv(&msg.Msg{Type: msg.Inv, Addr: lineX, Src: dirID})
	drain(k)
	dir.find(t, msg.InvAck)
}

func TestOwnerSnoopStalledUntilGrant(t *testing.T) {
	// A SnpInv that overtakes our DataM grant parks until the fill, then
	// answers from the granted state.
	l1, dir, k := newTestL1(t, MESI)
	var stDone bool
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 6}, func(cpu.Response) { stDone = true })
	drain(k)
	dir.take()
	l1.Recv(&msg.Msg{Type: msg.SnpInv, Addr: lineX, Src: dirID})
	drain(k)
	if len(dir.sent) != 0 {
		t.Fatalf("snoop answered before the grant: %v", dir.sent)
	}
	l1.Recv(&msg.Msg{Type: msg.DataM, Addr: lineX, Src: dirID, Data: data(1, 0)})
	drain(k)
	if !stDone {
		t.Fatal("rider store unfinished")
	}
	rsp := dir.find(t, msg.SnpRspInv)
	if !rsp.Dirty || rsp.Data.Word(1) != 6 {
		t.Fatalf("post-grant snoop response: %v", rsp)
	}
	if l1.Cache().Probe(lineX) != nil {
		t.Fatal("line should be gone after the parked snoop")
	}
}
