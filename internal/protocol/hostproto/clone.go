package hostproto

import (
	"slices"

	"c3/internal/cpu"
	"c3/internal/mem"
	"c3/internal/network"
	"c3/internal/sim"
)

// Clone returns a copy of the L1 for model-checker snapshots, attached
// to kernel k and fabric net. The cache and the request and eviction
// tables are shared copy-on-write with the original (see cache.Cache and
// mem.Table). Pending core completions are the one link to another
// component: a tracked op (cpu.Request.Token) holds no callback, and its
// reply goes to the L1's core callback, which the clone takes from done
// — the cloned core's Callback — so the snapshot's completion path is
// identical to the original's. An untracked op holds its own callback
// and cannot be cloned. The reply queue is empty at quiescence, the
// only point a model is cloned. The tracer is not carried over (checker
// models are untraced).
func (l *L1) Clone(k *sim.Kernel, net network.Fabric, done func(cpu.Response)) *L1 {
	if l.replies.Len() != 0 {
		panic("hostproto: Clone of L1 with queued replies")
	}
	tracked := func(ops []pendingOp) {
		for _, op := range ops {
			if op.done != nil {
				panic("hostproto: Clone of L1 with an untracked pending op")
			}
		}
	}
	l.reqs.ForEachRO(func(_ mem.LineAddr, t *reqTBE) { tracked(t.ops) })
	tracked(l.deferred)
	return &L1{
		id: l.id, dir: l.dir, k: k, net: net,
		c: l.c.Clone(), cfg: l.cfg,
		reqs: l.reqs.Clone(), evs: l.evs.Clone(),
		deferred: slices.Clip(l.deferred), done: done,
		Accesses: l.Accesses, Misses: l.Misses,
	}
}

// Release recycles the cache slab and the request and eviction stores
// (see cache.Cache.Release and mem.Table.Release). The L1 must not be
// used afterwards.
func (l *L1) Release() {
	l.c.Release()
	l.reqs.Release()
	l.evs.Release()
}
