package verif

import (
	"fmt"
	"sync/atomic"

	"c3/internal/core"
	"c3/internal/cpu"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/protocol/cxl"
	"c3/internal/protocol/hmesi"
	"c3/internal/protocol/hostproto"
)

// modelsLive counts models built or cloned and not yet released — the
// pool-accounting signal behind the leak regression tests: after a
// checker run returns (on any path, including violations and aborts),
// every model it created must have been released.
var modelsLive atomic.Int64

// ModelsLive reports the number of live (unreleased) models in the
// process. Test instrumentation.
func ModelsLive() int64 { return modelsLive.Load() }

// group is one ownership group: the components a single delivery can
// run (DESIGN §14). A thread's group is its core, program source and
// L1; a cluster's is its C3 with the LLC; the home is the DCOH or H-MESI
// directory with DRAM. A delivery runs only the group owning its
// destination node, plus the kernel events that group schedules, and
// reaches any other group only through the fabric — the argument the
// sleep sets rest on, which Step turns into copy-on-write: models share
// every group they have not stepped since they were cloned.
type group struct {
	// refs counts the models holding the group. owner is the model whose
	// kernel and fabric the components are bound to; a model writes a
	// group in place only as its owner and sole holder.
	refs  int
	owner *Model
	// hashes caches the group's state hash per renaming index, 0 meaning
	// not cached; one backs it when the symmetry admits only the
	// identity renaming. inv caches its share of the per-state
	// invariants. A delivery to the group drops both (see forget).
	hashes []uint64
	one    [1]uint64
	inv    invSummary

	// A thread group sets core, src and l1; a cluster group c3; the home
	// dram and one of dcoh and hdir.
	core *cpu.Core
	src  *cpu.SliceSource
	l1   *hostproto.L1
	c3   *core.C3
	dram *mem.DRAM
	dcoh *cxl.DCOH
	hdir *hmesi.Dir
}

// node returns the id of the node the group receives deliveries at.
func (g *group) node() msg.NodeID {
	switch {
	case g.l1 != nil:
		return g.l1.ID()
	case g.c3 != nil:
		return g.c3.ID()
	case g.dcoh != nil:
		return g.dcoh.ID()
	}
	return g.hdir.ID()
}

// copyTo returns a copy of g bound to m's kernel and fabric, with m as
// owner and sole holder.
func (g *group) copyTo(m *Model) *group {
	n := &group{refs: 1, owner: m}
	switch {
	case g.l1 != nil:
		n.src = g.src.Clone()
		n.core = g.core.Clone(&m.K, n.src)
		n.l1 = g.l1.Clone(&m.K, &m.Fabric, n.core.Callback())
		n.core.BindL1(n.l1)
	case g.c3 != nil:
		n.c3 = g.c3.Clone(&m.K, &m.Fabric, &m.Fabric)
	default:
		n.dram = g.dram.Clone(&m.K)
		if g.dcoh != nil {
			n.dcoh = g.dcoh.Clone(&m.K, &m.Fabric, n.dram)
		} else {
			n.hdir = g.hdir.Clone(&m.K, &m.Fabric, n.dram)
		}
	}
	return n
}

// recv delivers mm to the group's receiving node on behalf of m, which
// must own the group alone (see Model.own): the components of a group m
// shares are bound to another model's kernel and fabric, and a parent
// or sibling still holds them, so running one would corrupt that model.
func (g *group) recv(m *Model, mm *msg.Msg) {
	if g.owner != m || g.refs != 1 {
		panic(fmt.Sprintf("verif: delivery of %v to node %d, whose group this model does not own alone", mm, mm.Dst))
	}
	switch {
	case g.l1 != nil:
		g.l1.Recv(mm)
	case g.c3 != nil:
		g.c3.Recv(mm)
	case g.dcoh != nil:
		g.dcoh.Recv(mm)
	default:
		g.hdir.Recv(mm)
	}
}

// drop removes one holder. The last releases the copy-on-write backings
// of the group's components.
func (g *group) drop() {
	if g.refs--; g.refs > 0 {
		return
	}
	switch {
	case g.l1 != nil:
		g.l1.Release()
	case g.c3 != nil:
		g.c3.Release()
	default:
		if g.dcoh != nil {
			g.dcoh.Release()
		} else {
			g.hdir.Release()
		}
		g.dram.Release()
	}
}

// Clone returns a snapshot of a quiescent model that evolves
// independently of it: stepping either one leaves the other untouched.
// The checker uses it to expand a frontier state's successors without
// re-executing the delivery prefix from the root.
//
// A clone is one allocation: the Model itself, holding a copy of the
// kernel's clock, the fabric (which shares every backing with m until
// either side writes one; see ChoiceFabric.Clone) and m's group
// pointers. It shares every ownership group with m under the group's
// refcount, and Step copies a group onto the stepping model's own
// kernel and fabric the first time a delivery reaches it — unless that
// model built the group and is its sole holder. A successor therefore
// owns the one group its delivery ran and shares the rest with its
// parent. Inside a copied group, all per-line state — cache frame
// slabs, every controller's line tables and the DRAM line store — is
// copy-on-write too (see cache.Cache and mem.Table), so a copy
// allocates once per component and a table the delivery leaves
// untouched is never copied.
//
// Cloning is only defined at quiescent points (the only states the
// checker visits): the kernel queue must be empty, which guarantees no
// event closures reference the old graph. The one cross-component link
// that outlives quiescence — an L1's pending core completions — stays
// inside the thread group: copyTo wires the copied L1 to the copied
// core's callback (see cpu.Request.Token and cpu.Core.Callback).
//
// Group and COW refcounts are plain counters: a model, its clones and
// their backings stay on one goroutine, and goroutines share only the
// pools.
func (m *Model) Clone() *Model {
	n := &Model{K: m.K.Clone(), Fabric: m.Fabric.Clone(), b: m.b}
	n.groups = append(n.slots[:0], m.groups...)
	for _, g := range m.groups {
		g.refs++
	}
	modelsLive.Add(1)
	return n
}

// own makes group gi writable by m and returns it: in place when m is
// its owner and sole holder, otherwise as a copy bound to m's kernel and
// fabric that replaces m's reference. Either way the group's cached
// hashes and invariant summary are gone, since the caller is about to
// write it.
func (m *Model) own(gi int) *group {
	g := m.groups[gi]
	if g.owner == m && g.refs == 1 {
		g.forget()
		return g
	}
	n := g.copyTo(m)
	g.drop()
	m.groups[gi] = n
	return n
}

// forget drops what the group caches of its state: its hashes and its
// invariant summary. A copy (copyTo) starts with neither.
func (g *group) forget() {
	clear(g.hashes)
	g.inv.ok = false
}

// dropHashes forgets every group's cached hashes and invariant summary
// and the fabric's hashes, for code that writes a model outside Step.
func (m *Model) dropHashes() {
	for _, g := range m.groups {
		g.forget()
	}
	m.Fabric.dropHashes()
}

// Release retires the model, dropping its reference to every group; the
// last holder of a group recycles the COW slabs behind its caches and
// the per-line tables of its controllers and DRAM through their pools.
// The model must not be used afterwards. Calling Release is optional
// (unreleased backings are garbage collected); the checker releases
// expanded bases, duplicate successors, and budget-dropped snapshots to
// keep the clone hot path allocation-free. Releasing a nil or already
// released model does nothing.
func (m *Model) Release() {
	if m == nil || m.released {
		return
	}
	m.released = true
	modelsLive.Add(-1)
	for _, g := range m.groups {
		g.drop()
	}
	// A group the model built may outlive it in its clones; they must not
	// keep the model's other groups, or the fabric backings it holds,
	// reachable through its owner pointer.
	clear(m.groups)
	m.groups = nil
	m.Fabric = ChoiceFabric{}
}
