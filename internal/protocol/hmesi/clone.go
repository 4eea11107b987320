package hmesi

import (
	"c3/internal/mem"
	"c3/internal/network"
	"c3/internal/sim"
)

// Clone returns a copy of the directory for model-checker snapshots,
// attached to kernel k, fabric net, and an already-cloned dram. All
// directory state is plain data in one line table, shared copy-on-write
// with the original (see mem.Table); memory-access continuations live
// as kernel events and the outbox drains with them, so both must be
// empty (the checker clones only quiescent states). The tracer is not
// carried over.
func (d *Dir) Clone(k *sim.Kernel, net network.Fabric, dram *mem.DRAM) *Dir {
	if d.out.Len() != 0 {
		panic("hmesi: Clone of directory with queued sends")
	}
	return &Dir{
		id: d.id, k: k, net: net, dram: dram, Lat: d.Lat,
		lines: d.lines.Clone(), dead: d.dead, Stats: d.Stats,
	}
}

// Release drops the directory's reference to its line table (see
// mem.Table.Release); the directory must not be used afterwards.
func (d *Dir) Release() { d.lines.Release() }
