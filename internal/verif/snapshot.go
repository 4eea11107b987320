package verif

import "sync/atomic"

// modelsLive counts models built or cloned and not yet released — the
// pool-accounting signal behind the leak regression tests: after a
// checker run returns (on any path, including violations and aborts),
// every model it created must have been released.
var modelsLive atomic.Int64

// ModelsLive reports the number of live (unreleased) models in the
// process. Test instrumentation.
func ModelsLive() int64 { return modelsLive.Load() }

// Clone returns a deep copy of a quiescent model: an independent system
// whose every component — kernel clock, cores, store buffers, host
// caches, C3 controllers, global directory, DRAM, and in-flight fabric
// messages — is copied, so delivering a message to the clone leaves the
// original untouched. The checker uses it to expand a frontier state's
// successors without re-executing the delivery prefix from the root.
//
// All per-line state — cache frame slabs, every controller's line
// tables and the DRAM line store — clones copy-on-write: the clone
// shares the parent's backing under a refcount and a private copy
// materializes only on the first mutating access (see cache.Cache and
// mem.Table), so a clone allocates once per component. A successor that
// hashes to an already-visited state is therefore cloned, stepped,
// hashed, and discarded without copying any table its step left
// untouched.
//
// Cloning is only defined at quiescent points (the only states the
// checker visits): the kernel queue must be empty, which guarantees no
// event closures reference the old graph. The one cross-component link
// that outlives quiescence — an L1's pending core completions — goes
// through the L1's core callback, which the clone takes from the cloned
// core (see cpu.Request.Token and cpu.Core.Callback).
//
// Clone is read-only on the receiver except for the COW refcounts, so
// several successors of the same parent may be cloned concurrently.
func (m *Model) Clone() *Model {
	n := &Model{cfg: m.cfg, K: m.K.Clone(), addrs: m.addrs, addrLines: m.addrLines}
	n.Fabric = m.Fabric.Clone()
	n.dram = m.dram.Clone(n.K)
	if m.dcoh != nil {
		n.dcoh = m.dcoh.Clone(n.K, n.Fabric, n.dram)
		n.Fabric.Register(n.dcoh.ID(), n.dcoh)
	}
	if m.hdir != nil {
		n.hdir = m.hdir.Clone(n.K, n.Fabric, n.dram)
		n.Fabric.Register(n.hdir.ID(), n.hdir)
	}
	for ci, c3 := range m.c3s {
		nc := c3.Clone(n.K, n.Fabric, n.Fabric)
		n.Fabric.Register(nc.ID(), nc)
		n.c3s[ci] = nc
	}
	n.threads = make([]thread, len(m.threads))
	for i, t := range m.threads {
		src := t.src.Clone()
		nc := t.core.Clone(n.K, src)
		l1 := t.l1.Clone(n.K, n.Fabric, nc.Callback())
		nc.BindL1(l1)
		n.Fabric.Register(l1.ID(), l1)
		n.threads[i] = thread{nc, src, l1}
	}
	modelsLive.Add(1)
	return n
}

// Release retires the model, dropping its references to the COW slabs
// behind every cache and the per-line tables of every controller and
// the DRAM, so sole-owned backings recycle through their pools. The model must not be used afterwards. Calling
// Release is optional (unreleased backings are garbage collected); the
// checker releases expanded bases, duplicate successors, and
// budget-dropped snapshots to keep the clone hot path allocation-free.
func (m *Model) Release() {
	if m.released {
		return
	}
	m.released = true
	modelsLive.Add(-1)
	for _, t := range m.threads {
		t.l1.Release()
	}
	for _, c3 := range m.c3s {
		c3.Release()
	}
	if m.dcoh != nil {
		m.dcoh.Release()
	}
	if m.hdir != nil {
		m.hdir.Release()
	}
	m.dram.Release()
}
