package core

import (
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
)

// Clone returns a deep copy of the controller for model-checker
// snapshots, attached to kernel k and the given fabrics. All C3 state is
// plain data (directory entries, TBEs, queued messages) — in-flight
// timing lives as kernel events and must have drained before cloning.
// Hybrid-memory configurations are not cloneable: LocalMem would be
// shared with the original. The tracer is not carried over.
//
// The CXL cache clones copy-on-write (see cache.Cache). Messages are
// immutable after Send (see msg.Msg), so *msg.Msg pointers held by TBEs
// are shared with the original; stalled-queue slice headers are still
// private, so post-clone appends never touch the original's backing
// array. Directory and TBE records are allocated as slabs, and sharer
// vectors are NodeSet values that copy with their struct.
func (c *C3) Clone(k *sim.Kernel, local, global network.Fabric) *C3 {
	if c.cfg.LocalMem != nil {
		panic("core: Clone of C3 with hybrid local memory")
	}
	cfg := c.cfg
	cfg.Kernel, cfg.LocalNet, cfg.GlobalNet = k, local, global
	n := &C3{
		cfg: cfg, k: k, table: c.table, llc: c.llc.Clone(),
		dirs:  make(map[mem.LineAddr]*ldir, len(c.dirs)),
		tbes:  make(map[mem.LineAddr]*tbe, len(c.tbes)),
		Stats: c.Stats,
	}
	dslab := make([]ldir, len(c.dirs))
	i := 0
	for a, d := range c.dirs {
		nd := &dslab[i]
		i++
		*nd = *d
		n.dirs[a] = nd
	}
	tslab := make([]tbe, len(c.tbes))
	i = 0
	for a, t := range c.tbes {
		nt := &tslab[i]
		i++
		*nt = *t
		if len(t.stalled) > 0 {
			nt.stalled = append([]*msg.Msg(nil), t.stalled...)
		}
		n.tbes[a] = nt
	}
	return n
}

// ReleaseLLC recycles the CXL cache's frame slab (see cache.Release).
// The controller must not be used afterwards; the model checker calls
// it when retiring a snapshot.
func (c *C3) ReleaseLLC() { c.llc.Release() }
