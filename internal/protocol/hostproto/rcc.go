package hostproto

import (
	"fmt"

	"c3/internal/cache"
	"c3/internal/cpu"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
)

// RCC line states.
const (
	rV = iota + 1 // valid clean
	rD            // valid with dirty words
)

// rccTBE tracks an outstanding GetV.
type rccTBE struct {
	ops []pendingOp
}

// seqKind classifies the serialized synchronization operations.
type seqKind uint8

const (
	seqRelease  seqKind = iota + 1 // flush dirty, then SyncRel
	seqAcquire                     // self-invalidate, then SyncAcq
	seqFence                       // release + acquire
	seqRelStore                    // release store (Fig. 8)
	seqAtomic                      // flush+inv, then AtomicAdd/Xchg at C3
)

type seqOp struct {
	kind        seqKind
	op          pendingOp
	pendingAcks int
	// seqRelStore: the store to write through after the flush.
	relLine mem.LineAddr
	stage   int
}

// RCCL1 is a self-invalidating, release-consistency private cache
// (GPU-style): loads fill without sharer tracking, stores dirty words
// locally, releases write dirty words through to the C3 CXL cache, and
// acquires self-invalidate clean lines (Sec. IV-D2, Fig. 8). It receives
// no snoops — C3 answers device snoops from the CXL cache directly.
type RCCL1 struct {
	id   msg.NodeID
	dir  msg.NodeID
	k    *sim.Kernel
	net  network.Fabric
	c    *cache.Cache
	cfg  Config
	mask map[mem.LineAddr]uint8
	pend map[mem.LineAddr]*rccTBE
	// evAcks counts outstanding eviction write-throughs per line.
	evAcks map[mem.LineAddr]int

	cur      *seqOp
	seqQueue []*seqOp
	replies  replyQueue

	Accesses, Misses uint64
}

// NewRCC builds an RCC private cache.
func NewRCC(id, dir msg.NodeID, k *sim.Kernel, net network.Fabric, cfg Config) *RCCL1 {
	if cfg.SizeBytes == 0 {
		cfg = DefaultConfig(cfg.Variant)
	}
	return &RCCL1{
		id: id, dir: dir, k: k, net: net,
		c:      cache.New(cfg.SizeBytes, cfg.Ways),
		cfg:    cfg,
		mask:   make(map[mem.LineAddr]uint8),
		pend:   make(map[mem.LineAddr]*rccTBE),
		evAcks: make(map[mem.LineAddr]int),
	}
}

// ID returns the cache's network id.
func (l *RCCL1) ID() msg.NodeID { return l.id }

// Cache exposes the array for tests.
func (l *RCCL1) Cache() *cache.Cache { return l.c }

// NeedsSyncOps implements cpu.MemPort: RCC caches act on fences.
func (l *RCCL1) NeedsSyncOps() bool { return true }

func (l *RCCL1) send(m *msg.Msg) {
	m.Src = l.id
	if m.Dst == 0 {
		m.Dst = l.dir
	}
	l.net.Send(m)
}

func (l *RCCL1) reply(op pendingOp, val uint64, missed, poisoned bool) {
	r := cpu.Response{Val: val, Missed: missed, Poisoned: poisoned}
	if missed {
		r.MissLatency = l.k.Now() - op.start
	}
	l.replies.schedule(l.k, l.cfg.HitLatency, op, r)
}

// Access implements cpu.MemPort.
func (l *RCCL1) Access(req cpu.Request, done func(cpu.Response)) {
	l.Accesses++
	op := pendingOp{req: req, done: done, start: l.k.Now()}
	switch req.Kind {
	case cpu.Load:
		if req.Acq {
			l.enqueueSeq(&seqOp{kind: seqAcquire, op: op})
			return
		}
		l.load(op)
	case cpu.Store:
		if req.Rel {
			l.enqueueSeq(&seqOp{kind: seqRelStore, op: op, relLine: req.Addr.Line()})
			return
		}
		l.store(op)
	case cpu.RMWAdd, cpu.RMWXchg:
		l.enqueueSeq(&seqOp{kind: seqAtomic, op: op})
	case cpu.Fence:
		l.enqueueSeq(&seqOp{kind: seqFence, op: op})
	case cpu.Release:
		l.enqueueSeq(&seqOp{kind: seqRelease, op: op})
	case cpu.Acquire:
		l.enqueueSeq(&seqOp{kind: seqAcquire, op: op})
	}
}

func (l *RCCL1) load(op pendingOp) {
	line := op.req.Addr.Line()
	if t := l.pend[line]; t != nil {
		t.ops = append(t.ops, op)
		return
	}
	if e := l.c.Lookup(line); e != nil {
		l.c.Touch(e)
		l.reply(op, e.Data.Word(op.req.Addr.WordIndex()), false, e.Poisoned)
		return
	}
	l.Misses++
	l.getV(line, op)
}

func (l *RCCL1) store(op pendingOp) {
	line := op.req.Addr.Line()
	if t := l.pend[line]; t != nil {
		t.ops = append(t.ops, op)
		return
	}
	if e := l.c.Lookup(line); e != nil {
		l.writeLocal(e, op.req)
		l.c.Touch(e)
		l.reply(op, 0, false, false)
		return
	}
	// Write-allocate: fetch then write.
	l.Misses++
	l.getV(line, op)
}

func (l *RCCL1) writeLocal(e *cache.Entry, req cpu.Request) {
	w := req.Addr.WordIndex()
	e.Data.SetWord(w, req.Val)
	e.State = rD
	l.mask[e.Addr] |= 1 << w
}

func (l *RCCL1) getV(line mem.LineAddr, op pendingOp) {
	if !l.c.HasSpace(line) {
		v := l.c.VictimFunc(line, func(e *cache.Entry) bool { return l.pend[e.Addr] == nil })
		if v == nil {
			// Pathological set pressure; retry shortly.
			l.k.After(10, func() { l.Access(op.req, op.done) })
			return
		}
		l.evict(v)
	}
	f := l.c.Install(line)
	f.State = rV // placeholder until DataV; pend map guards it
	l.pend[line] = &rccTBE{ops: []pendingOp{op}}
	l.send(&msg.Msg{Type: msg.GetV, Addr: line, VNet: msg.VReq})
}

// evict drops a line, writing dirty words through first.
func (l *RCCL1) evict(e *cache.Entry) {
	if e.State == rD {
		m := l.mask[e.Addr]
		l.evAcks[e.Addr]++
		l.send(&msg.Msg{Type: msg.WrThrough, Addr: e.Addr, VNet: msg.VReq,
			Data: msg.WithData(e.Data), Mask: m, Dirty: true})
	}
	delete(l.mask, e.Addr)
	l.c.Remove(e)
}

// --- synchronization sequencing ---

func (l *RCCL1) enqueueSeq(s *seqOp) {
	if l.cur != nil {
		l.seqQueue = append(l.seqQueue, s)
		return
	}
	l.cur = s
	l.runSeq()
}

// flushDirty write-throughs every dirty line (optionally excluding one);
// it returns the number of acks now pending.
func (l *RCCL1) flushDirty(except mem.LineAddr, haveExcept bool) int {
	n := 0
	l.c.ForEach(func(e *cache.Entry) {
		if e.State != rD {
			return
		}
		if haveExcept && e.Addr == except {
			return
		}
		n++
		l.send(&msg.Msg{Type: msg.WrThrough, Addr: e.Addr, VNet: msg.VReq,
			Data: msg.WithData(e.Data), Mask: l.mask[e.Addr], Dirty: true})
		e.State = rV
		delete(l.mask, e.Addr)
	})
	return n
}

// invalidateClean drops every clean line (self-invalidation).
func (l *RCCL1) invalidateClean() {
	var drop []*cache.Entry
	l.c.ForEach(func(e *cache.Entry) {
		if e.State == rV && l.pend[e.Addr] == nil {
			drop = append(drop, e)
		}
	})
	for _, e := range drop {
		l.c.Remove(e)
	}
}

func (l *RCCL1) runSeq() {
	s := l.cur
	switch s.kind {
	case seqRelease, seqFence:
		s.stage = 1
		s.pendingAcks = l.flushDirty(0, false)
		if s.pendingAcks == 0 {
			l.seqFlushed()
		}
	case seqAcquire:
		l.invalidateClean()
		s.stage = 2
		l.send(&msg.Msg{Type: msg.SyncAcq, VNet: msg.VReq})
	case seqRelStore:
		s.stage = 1
		s.pendingAcks = l.flushDirty(s.relLine, true)
		if s.pendingAcks == 0 {
			l.seqFlushed()
		}
	case seqAtomic:
		s.stage = 1
		s.pendingAcks = l.flushDirty(0, false)
		l.invalidateClean()
		if s.pendingAcks == 0 {
			l.seqFlushed()
		}
	}
}

// seqFlushed advances a sync op once its dirty flushes are acked.
func (l *RCCL1) seqFlushed() {
	s := l.cur
	switch s.kind {
	case seqRelease:
		s.stage = 2
		l.send(&msg.Msg{Type: msg.SyncRel, VNet: msg.VReq})
	case seqFence:
		l.invalidateClean()
		s.stage = 2
		l.send(&msg.Msg{Type: msg.SyncRel, VNet: msg.VReq})
	case seqRelStore:
		// Now write the release store's line through (Fig. 8): merge the
		// local copy (if any) with the released word. The released word
		// stays marked dirty locally so a racing fill cannot clobber it
		// (the re-flush it may cause is idempotent).
		s.stage = 2
		var data mem.Data
		var mask uint8
		w := s.op.req.Addr.WordIndex()
		if e := l.c.Probe(s.relLine); e != nil {
			e.Data.SetWord(w, s.op.req.Val)
			e.State = rD
			l.mask[s.relLine] |= 1 << w
			data = e.Data
			mask = l.mask[s.relLine]
		} else {
			data.SetWord(w, s.op.req.Val)
			mask = 1 << w
		}
		l.send(&msg.Msg{Type: msg.WrThrough, Addr: s.relLine, VNet: msg.VReq,
			Data: msg.WithData(data), Mask: mask, Dirty: true, Rel: true})
	case seqAtomic:
		s.stage = 2
		ty := msg.AtomicAdd
		if s.op.req.Kind == cpu.RMWXchg {
			ty = msg.AtomicXchg
		}
		l.send(&msg.Msg{Type: ty, Addr: s.op.req.Addr.Line(), VNet: msg.VReq,
			Word: s.op.req.Addr.WordIndex(), Val: s.op.req.Val})
	}
}

func (l *RCCL1) seqDone(val uint64, poisoned bool) {
	s := l.cur
	l.cur = nil
	l.reply(s.op, val, true, poisoned)
	if len(l.seqQueue) > 0 {
		l.cur = l.seqQueue[0]
		l.seqQueue = l.seqQueue[1:]
		l.runSeq()
	}
}

// Recv implements network.Port.
func (l *RCCL1) Recv(m *msg.Msg) {
	switch m.Type {
	case msg.DataV:
		t := l.pend[m.Addr]
		if t == nil {
			panic(fmt.Sprintf("hostproto: DataV with no TBE at RCC L1 %d", l.id))
		}
		delete(l.pend, m.Addr)
		e := l.c.Probe(m.Addr)
		if e == nil {
			panic("hostproto: DataV with no frame")
		}
		// Fill, but preserve locally-dirty words (a release store may
		// have written into the in-flight frame).
		old := e.Data
		e.Data = *m.Data
		e.Poisoned = m.Poisoned
		if dm := l.mask[m.Addr]; dm != 0 {
			for w := 0; w < mem.LineWords; w++ {
				if dm&(1<<w) != 0 {
					e.Data.SetWord(w, old.Word(w))
				}
			}
			e.State = rD
		} else {
			e.State = rV
		}
		for _, op := range t.ops {
			switch op.req.Kind {
			case cpu.Load:
				l.reply(op, e.Data.Word(op.req.Addr.WordIndex()), true, e.Poisoned)
			case cpu.Store:
				l.writeLocal(e, op.req)
				l.reply(op, 0, true, false)
			default:
				panic("hostproto: odd queued RCC op")
			}
		}
	case msg.PutAck:
		// Ack for a WrThrough: eviction, sync flush, or release store.
		if n := l.evAcks[m.Addr]; n > 0 {
			if n == 1 {
				delete(l.evAcks, m.Addr)
			} else {
				l.evAcks[m.Addr] = n - 1
			}
			return
		}
		s := l.cur
		if s == nil {
			panic(fmt.Sprintf("hostproto: stray PutAck at RCC L1 %d for %v", l.id, m.Addr))
		}
		if s.stage == 1 {
			s.pendingAcks--
			if s.pendingAcks == 0 {
				l.seqFlushed()
			}
			return
		}
		if s.kind == seqRelStore && s.stage == 2 {
			l.seqDone(0, false)
			return
		}
		panic("hostproto: PutAck in odd sync stage")
	case msg.SyncAck:
		if l.cur == nil || l.cur.stage != 2 {
			panic("hostproto: stray SyncAck")
		}
		l.seqDone(0, false)
	case msg.AtomicResp:
		if l.cur == nil || l.cur.kind != seqAtomic {
			panic("hostproto: stray AtomicResp")
		}
		l.seqDone(m.Val, m.Poisoned)
	default:
		panic(fmt.Sprintf("hostproto: RCC L1 %d got unexpected %v", l.id, m))
	}
}
