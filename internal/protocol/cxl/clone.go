package cxl

import (
	"c3/internal/mem"
	"c3/internal/network"
	"c3/internal/sim"
)

// Clone returns a copy of the DCOH for model-checker snapshots,
// attached to kernel k, fabric net, and an already-cloned dram. All DCOH
// state is plain data in one line table, shared copy-on-write with the
// original (see mem.Table); DRAM read/write continuations live as
// kernel events and the outbox drains with them, so both must be empty
// (the checker clones only quiescent states). The tracer is not carried
// over.
func (d *DCOH) Clone(k *sim.Kernel, net network.Fabric, dram *mem.DRAM) *DCOH {
	if d.out.Len() != 0 {
		panic("cxl: Clone of DCOH with queued sends")
	}
	return &DCOH{
		id: d.id, k: k, net: net, dram: dram, Lat: d.Lat,
		lines: d.lines.Clone(), dead: d.dead, Stats: d.Stats,
	}
}

// Release drops the DCOH's reference to its line table (see
// mem.Table.Release); the DCOH must not be used afterwards.
func (d *DCOH) Release() { d.lines.Release() }
