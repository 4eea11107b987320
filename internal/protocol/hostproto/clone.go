package hostproto

import (
	"c3/internal/cpu"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
)

// Clone returns a deep copy of the L1 for model-checker snapshots,
// attached to kernel k and fabric net. Pending core completions are the
// one piece of L1 state that is not plain data: each queued pendingOp
// holds the original core's callback. The request token (see
// cpu.Request.Token) identifies the operation and the reply echoes it,
// so the clone points every pending op at done — the cloned core's
// Callback — making the snapshot's completion path identical to the
// original's. The reply queue is empty at quiescence, the only point a
// model is cloned. The tracer is not carried over (checker models are
// untraced).
func (l *L1) Clone(k *sim.Kernel, net network.Fabric, done func(cpu.Response)) *L1 {
	if l.replies.Len() != 0 {
		panic("hostproto: Clone of L1 with queued replies")
	}
	n := &L1{
		id: l.id, dir: l.dir, k: k, net: net,
		c: l.c.Clone(), cfg: l.cfg,
		reqs:     make(map[mem.LineAddr]*reqTBE, len(l.reqs)),
		evs:      make(map[mem.LineAddr]*evictTBE, len(l.evs)),
		Accesses: l.Accesses, Misses: l.Misses,
	}
	redo := func(op pendingOp) pendingOp {
		if op.req.Token == 0 {
			panic("hostproto: Clone of L1 with an untracked pending op")
		}
		op.done = done
		return op
	}
	for a, t := range l.reqs {
		nt := &reqTBE{
			addr: t.addr, wantM: t.wantM, started: t.started,
			invalidated: t.invalidated, opsAtInv: t.opsAtInv,
		}
		for _, op := range t.ops {
			nt.ops = append(nt.ops, redo(op))
		}
		if len(t.stalledSnps) > 0 {
			// Immutable after Send (see msg.Msg): share the pointers,
			// copy only the slice header's backing.
			nt.stalledSnps = append([]*msg.Msg(nil), t.stalledSnps...)
		}
		n.reqs[a] = nt
	}
	for a, t := range l.evs {
		ct := *t
		n.evs[a] = &ct
	}
	for _, op := range l.deferred {
		n.deferred = append(n.deferred, redo(op))
	}
	return n
}
