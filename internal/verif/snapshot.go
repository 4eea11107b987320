package verif

import (
	"sync/atomic"

	"c3/internal/core"
	"c3/internal/cpu"
)

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
// The big flat arrays — cache frame slabs and the DRAM line store —
// clone copy-on-write: the clone shares the parent's backing under a
// refcount and a private copy materializes only on the first mutating
// access (see cache.Cache and mem.DRAM). A successor that hashes to an
// already-visited state is therefore cloned, stepped, hashed, and
// discarded without ever copying the arrays its step left untouched.
//
// Cloning is only defined at quiescent points (the only states the
// checker visits): the kernel queue must be empty, which guarantees no
// event closures reference the old graph. The one cross-component link
// that outlives quiescence — an L1's pending core completions — is
// rebound to the cloned core by request token (see cpu.Request.Token and
// cpu.Core.Callback).
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
	n.c3s = make([]*core.C3, 0, len(m.c3s))
	for _, c3 := range m.c3s {
		nc := c3.Clone(n.K, n.Fabric, n.Fabric)
		n.Fabric.Register(nc.ID(), nc)
		n.c3s = append(n.c3s, nc)
	}
	n.cores = make([]*cpu.Core, 0, len(m.cores))
	n.srcs = make([]*cpu.SliceSource, 0, len(m.srcs))
	n.l1s = make([]*hostL1, 0, len(m.l1s))
	hls := make([]hostL1, len(m.l1s))
	for i, c := range m.cores {
		src := m.srcs[i].Clone()
		nc := c.Clone(n.K, src)
		l1 := m.l1s[i].l1.Clone(n.K, n.Fabric, nc.Callback())
		nc.BindL1(l1)
		n.Fabric.Register(l1.ID(), l1)
		n.cores = append(n.cores, nc)
		n.srcs = append(n.srcs, src)
		hls[i] = hostL1{l1: l1, cache: l1.Cache()}
		n.l1s = append(n.l1s, &hls[i])
	}
	modelsLive.Add(1)
	return n
}

// Release retires the model, dropping its references to the COW slabs
// behind every cache and the DRAM store so sole-owned backings recycle
// through their pools. The model must not be used afterwards. Calling
// Release is optional (unreleased backings are garbage collected); the
// checker releases expanded bases, duplicate successors, and
// budget-dropped snapshots to keep the clone hot path allocation-free.
func (m *Model) Release() {
	if m.released {
		return
	}
	m.released = true
	modelsLive.Add(-1)
	for _, l := range m.l1s {
		l.cache.Release()
	}
	for _, c3 := range m.c3s {
		c3.ReleaseLLC()
	}
	m.dram.Release()
}
