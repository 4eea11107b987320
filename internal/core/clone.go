package core

import (
	"c3/internal/network"
	"c3/internal/sim"
)

// Clone returns a copy of the controller for model-checker snapshots,
// attached to kernel k and the given fabrics. All C3 state is plain data
// — the CXL cache and the directory and TBE tables, each shared
// copy-on-write with the original (see cache.Cache and mem.Table), so a
// clone costs one allocation. In-flight timing lives as kernel events
// and the outbox drains with them, so both must be empty (the checker
// clones only quiescent states). Hybrid-memory configurations are not
// cloneable: LocalMem would be shared with the original. The tracer is
// not carried over.
func (c *C3) Clone(k *sim.Kernel, local, global network.Fabric) *C3 {
	if c.cfg.LocalMem != nil {
		panic("core: Clone of C3 with hybrid local memory")
	}
	if c.out.Len() != 0 {
		panic("core: Clone of C3 with queued sends")
	}
	cfg := c.cfg
	cfg.Kernel, cfg.LocalNet, cfg.GlobalNet = k, local, global
	return &C3{
		cfg: cfg, k: k, table: c.table, llc: c.llc.Clone(),
		dirs: c.dirs.Clone(), tbes: c.tbes.Clone(), Stats: c.Stats,
	}
}

// Release recycles the CXL cache's frame slab and the directory and TBE
// stores (see cache.Cache.Release and mem.Table.Release). The
// controller must not be used afterwards; the model checker calls it
// when retiring a snapshot.
func (c *C3) Release() {
	c.llc.Release()
	c.dirs.Release()
	c.tbes.Release()
}
