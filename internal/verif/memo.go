package verif

import (
	"c3/internal/msg"
	"c3/internal/sim"
)

// memo is one exploration's transition memo (DESIGN §14). A delivery
// runs only the group owning its destination (see group), so what it
// does is a function of that group's state and the message: the group
// it leaves behind and the messages it sends, in order. The memo keys a
// delivery by the hashes of the two, which leave out only bookkeeping,
// and records what the first delivery of each pair did. A later delivery of the same
// pair swaps the recorded group into its model and replays the sends,
// running no controller code.
//
// The key is exact only where the group hashes are: where no cache set
// can fill (symmetry.porOK), so the LRU order the hash leaves out never
// picks a victim. check builds a memo only there, and never under
// ReplayFromRoot.
type memo struct {
	sym   *symmetry
	table map[memoKey]memoEntry
	// sends holds every entry's recorded sends, back to back; off is
	// where the sends of the delivery being recorded start.
	sends []*msg.Msg
	off   int
	// hits counts the deliveries the memo answered (Report.MemoHits).
	hits *uint64
}

// memoKey is a delivery: the index of the group it reaches, the group's
// hash under the identity renaming, and the message's.
type memoKey struct {
	gi         int
	group, msg uint64
}

// memoEntry is what a delivery did: the group it left behind, on which
// the memo holds one reference so that no model writes it in place; its
// sends, sends[off:off+n] of the memo; and the clock it quiesced at.
type memoEntry struct {
	g      *group
	off, n int32
	clock  sim.Time
}

func newMemo(sym *symmetry, hits *uint64) *memo {
	return &memo{sym: sym, table: map[memoKey]memoEntry{}, hits: hits}
}

// on reports whether mo answers deliveries: it exists and has not been
// released.
func (mo *memo) on() bool { return mo != nil && mo.table != nil }

// key returns the memo key of delivering mm to group gi of m.
func (mo *memo) key(m *Model, gi int, mm *msg.Msg) memoKey {
	id := &mo.sym.perms[0]
	return memoKey{gi: gi, group: m.groups[gi].hash(mo.sym, 0), msg: msgHash(mm, id)}
}

// record starts recording the sends of a delivery on m's fabric.
func (mo *memo) record(m *Model) {
	mo.off = len(mo.sends)
	m.Fabric.rec = &mo.sends
}

// store ends the recording and enters what the delivery keyed k did on
// m.
func (mo *memo) store(k memoKey, m *Model) {
	m.Fabric.rec = nil
	g := m.groups[k.gi]
	g.refs++
	mo.table[k] = memoEntry{g: g, off: int32(mo.off), n: int32(len(mo.sends) - mo.off), clock: m.K.Now()}
}

// sent returns e's recorded sends.
func (mo *memo) sent(e memoEntry) []*msg.Msg { return mo.sends[e.off : e.off+e.n] }

// reuse applies entry e to m in place of running the delivery: the
// recorded group replaces group gi, bringing its cached hashes and
// invariant summary, the sends go out in their recorded order, and the
// clock moves up to where the recorded run ended. The clock matters
// because a group may keep an absolute time, which the hash leaves out:
// the home's DRAM channel is busy until a time on the clock of the
// kernel that ran it. A run quiesces only after the channel's last
// access completes, so a clock at least as late as the recorded one is
// past that time, and the next access starts from the clock, as it
// would on the kernel that recorded it.
func (mo *memo) reuse(m *Model, gi int, e memoEntry) {
	*mo.hits++
	e.g.refs++
	m.groups[gi].drop()
	m.groups[gi] = e.g
	m.K.AdvanceTo(e.clock)
	for _, s := range mo.sent(e) {
		m.Fabric.Send(s)
	}
}

// release drops the memo's reference to every recorded group and turns
// the memo off. check releases it on every path out, and when memory
// pressure sheds snapshots.
func (mo *memo) release() {
	if !mo.on() {
		return
	}
	for _, e := range mo.table {
		e.g.drop()
	}
	mo.table, mo.sends = nil, nil
}
