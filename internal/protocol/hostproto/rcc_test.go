package hostproto

import (
	"testing"

	"c3/internal/cpu"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/sim"
)

func newTestRCC(t *testing.T) (*RCCL1, *fakeDir, *sim.Kernel) {
	t.Helper()
	k := &sim.Kernel{}
	dir := &fakeDir{}
	l1 := NewRCC(l1ID, dirID, k, dir, Config{SizeBytes: 2048, Ways: 2, HitLatency: 1})
	return l1, dir, k
}

func TestRCCLoadMissGetV(t *testing.T) {
	l1, dir, k := newTestRCC(t)
	var got uint64
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(r cpu.Response) { got = r.Val })
	drain(k)
	dir.find(t, msg.GetV)
	l1.Recv(&msg.Msg{Type: msg.DataV, Addr: lineX, Src: dirID, Data: data(1, 21)})
	drain(k)
	if got != 21 {
		t.Fatalf("got %d", got)
	}
	// Subsequent load hits locally.
	dir.take()
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(r cpu.Response) { got = r.Val })
	drain(k)
	if got != 21 || len(dir.sent) != 0 {
		t.Fatal("RCC load should hit after fill")
	}
}

func TestRCCStoreStaysLocalUntilRelease(t *testing.T) {
	l1, dir, k := newTestRCC(t)
	// Fill the line, then store: no traffic (dirty word held locally).
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataV, Addr: lineX, Src: dirID, Data: data(1, 0)})
	drain(k)
	dir.take()
	done := false
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 5}, func(cpu.Response) { done = true })
	drain(k)
	if !done || len(dir.sent) != 0 {
		t.Fatal("RCC store must complete locally")
	}
	// A standalone release flushes the dirty word with its mask.
	relDone := false
	l1.Access(cpu.Request{Kind: cpu.Release}, func(cpu.Response) { relDone = true })
	drain(k)
	wt := dir.find(t, msg.WrThrough)
	if wt.Mask != 1<<1 || wt.Data.Word(1) != 5 {
		t.Fatalf("flush wrong: mask=%x data=%v", wt.Mask, wt.Data)
	}
	if relDone {
		t.Fatal("release must wait for the flush ack")
	}
	l1.Recv(&msg.Msg{Type: msg.PutAck, Addr: lineX, Src: dirID})
	drain(k)
	dir.find(t, msg.SyncRel)
	l1.Recv(&msg.Msg{Type: msg.SyncAck, Src: dirID})
	drain(k)
	if !relDone {
		t.Fatal("release not completed after SyncAck")
	}
}

func TestRCCAcquireSelfInvalidates(t *testing.T) {
	l1, dir, k := newTestRCC(t)
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataV, Addr: lineX, Src: dirID, Data: data(1, 1)})
	drain(k)
	dir.take()
	// Acquire drops the clean copy; the next load must re-fetch.
	l1.Access(cpu.Request{Kind: cpu.Acquire}, func(cpu.Response) {})
	drain(k)
	dir.find(t, msg.SyncAcq)
	l1.Recv(&msg.Msg{Type: msg.SyncAck, Src: dirID})
	drain(k)
	if l1.Cache().Probe(lineX) != nil {
		t.Fatal("acquire must self-invalidate clean lines")
	}
	dir.take()
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(cpu.Response) {})
	drain(k)
	dir.find(t, msg.GetV)
}

func TestRCCAcquireKeepsDirty(t *testing.T) {
	l1, dir, k := newTestRCC(t)
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: addrX}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataV, Addr: lineX, Src: dirID, Data: data(1, 1)})
	drain(k)
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 9}, func(cpu.Response) {})
	drain(k)
	dir.take()
	l1.Access(cpu.Request{Kind: cpu.Acquire}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.SyncAck, Src: dirID})
	drain(k)
	e := l1.Cache().Probe(lineX)
	if e == nil || e.State != rD || e.Data.Word(1) != 9 {
		t.Fatal("acquire must keep the thread's own dirty words")
	}
}

func TestRCCReleaseStoreFlow(t *testing.T) {
	// Fig. 8: a release store flushes older dirty lines first, then
	// writes its own line through.
	l1, dir, k := newTestRCC(t)
	other := mem.Addr(0x5008)
	l1.Access(cpu.Request{Kind: cpu.Load, Addr: other}, func(cpu.Response) {})
	drain(k)
	l1.Recv(&msg.Msg{Type: msg.DataV, Addr: other.Line(), Src: dirID, Data: data(1, 0)})
	drain(k)
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: other, Val: 7}, func(cpu.Response) {})
	drain(k)
	dir.take()

	relDone := false
	l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 1, Rel: true},
		func(cpu.Response) { relDone = true })
	drain(k)
	// First the older dirty line flushes...
	first := dir.find(t, msg.WrThrough)
	if first.Addr != other.Line() {
		t.Fatalf("first flush to %v, want the older dirty line", first.Addr)
	}
	dir.take()
	l1.Recv(&msg.Msg{Type: msg.PutAck, Addr: other.Line(), Src: dirID})
	drain(k)
	// ...then the release line itself.
	rel := dir.find(t, msg.WrThrough)
	if rel.Addr != lineX || !rel.Rel || rel.Data.Word(1) != 1 {
		t.Fatalf("release write-through wrong: %v", rel)
	}
	if relDone {
		t.Fatal("release store must wait for its ack")
	}
	l1.Recv(&msg.Msg{Type: msg.PutAck, Addr: lineX, Src: dirID})
	drain(k)
	if !relDone {
		t.Fatal("release store unfinished")
	}
}

func TestRCCAtomicGoesToC3(t *testing.T) {
	l1, dir, k := newTestRCC(t)
	var old uint64
	l1.Access(cpu.Request{Kind: cpu.RMWAdd, Addr: addrX, Val: 2}, func(r cpu.Response) { old = r.Val })
	drain(k)
	a := dir.find(t, msg.AtomicAdd)
	if a.Word != 1 || a.Val != 2 {
		t.Fatalf("atomic op wrong: %v", a)
	}
	l1.Recv(&msg.Msg{Type: msg.AtomicResp, Addr: lineX, Src: dirID, Val: 40})
	drain(k)
	if old != 40 {
		t.Fatalf("atomic old = %d", old)
	}
}

func TestRCCEvictionFlushesDirty(t *testing.T) {
	l1, dir, k := newTestRCC(t)                                      // 32 lines, 16 sets x 2 ways
	mk := func(i int) mem.Addr { return mem.Addr(0x4000 + i*16*64) } // same set
	for i := 0; i < 3; i++ {
		i := i
		l1.Access(cpu.Request{Kind: cpu.Store, Addr: mk(i), Val: uint64(i + 1)}, func(cpu.Response) {})
		drain(k)
		if t2 := l1.pend.Peek(mk(i).Line()); t2 != nil {
			l1.Recv(&msg.Msg{Type: msg.DataV, Addr: mk(i).Line(), Src: dirID, Data: data(0, 0)})
			drain(k)
		}
	}
	// The third install evicted one dirty line: a WrThrough must have
	// been sent for it.
	found := false
	for _, m := range dir.sent {
		if m.Type == msg.WrThrough {
			found = true
		}
	}
	if !found {
		t.Fatal("dirty eviction must write through")
	}
}

func TestRCCNeedsSyncOps(t *testing.T) {
	l1, _, _ := newTestRCC(t)
	if !l1.NeedsSyncOps() {
		t.Fatal("RCC caches act on sync ops")
	}
	if l1.ID() != l1ID {
		t.Fatal("ID accessor")
	}
}
