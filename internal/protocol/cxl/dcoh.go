// Package cxl implements the CXL.mem 3.0 device coherency engine (DCOH):
// the global directory that lives on the multi-headed memory device and
// keeps the C3 instances of all hosts coherent.
//
// The DCOH realizes the protocol properties the paper attributes to CXL
// and measures in Fig. 11:
//
//   - per-line *blocking* transactions: while a MemRd is being serviced
//     (including its back-invalidation snoops) all other requests to the
//     line queue — the "convoy effect";
//   - device-initiated snoops (BISnpInv/BISnpData) with the 6-message
//     dirty-owner flow: the snooped host writes back via MemWr before its
//     BISnpRsp (Fig. 2, "CXL WB"), versus 4 messages when clean;
//   - the BIConflict/BIConflictAck handshake: answered immediately and
//     unconditionally on the FIFO response channel, so a host can decode
//     the directory's serialization order from the Cmp/Ack arrival order;
//   - tolerance of silent clean evictions: a snooped host that no longer
//     holds the line answers with a clean miss and the DCOH falls back to
//     device memory.
package cxl

import (
	"fmt"
	"slices"

	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
	"c3/internal/trace"
)

// Directory states for one line.
const (
	dI = iota
	dS
	dE
	dM
)

func dname(s int) string { return [...]string{"I", "S", "E", "M"}[s] }

// tx is a line's open read transaction, held inline in its dline; the
// zero tx (req == nil) means none is open.
type tx struct {
	req     *msg.Msg    // request being serviced
	pending msg.NodeSet // hosts whose snoop responses are due
	data    mem.Data    // dirty data collected from responses
	dirty   bool
	keptS   msg.NodeSet // snooped hosts that retained a shared copy
	// aborted marks a transaction whose requestor died: outstanding snoop
	// responses are still collected (and dirty data committed), but no
	// completion is granted — the NAK half of host isolation.
	aborted bool
}

type dline struct {
	state   int
	owner   msg.NodeID
	sharers msg.NodeSet
	cur     tx
	queue   []*msg.Msg
	// poisoned marks a line whose only copy died with a host: grants
	// carry msg.Poisoned from then on (sticky: a lost line stays
	// flagged, the CXL data-poison contract).
	poisoned bool
}

// busy reports whether a transaction is open on the line.
func (l *dline) busy() bool { return l.cur.req != nil }

// Clip implements mem.Clipper.
func (l *dline) Clip() { l.queue = slices.Clip(l.queue) }

// Stats aggregates DCOH telemetry.
type Stats struct {
	Reads, Writes uint64 // MemRd*, MemWr* processed
	Snoops        uint64 // BISnp* issued
	Conflicts     uint64 // BIConflict handshakes answered
	Stalls        uint64 // requests queued behind a busy line
}

// DCOH is the device coherency engine.
type DCOH struct {
	id   msg.NodeID
	k    *sim.Kernel
	net  network.Fabric
	dram *mem.DRAM
	// Lat is the controller occupancy added to each outgoing message. It
	// must not change while messages are in flight: the outbox relies on
	// them leaving in the order they were sent.
	Lat sim.Time

	lines mem.Table[dline]
	// out holds the messages waiting out Lat, oldest first.
	out sim.FIFO[*msg.Msg]

	// dead is the set of isolated (crashed) hosts; late messages from
	// them are dropped instead of panicking the FSM.
	dead msg.NodeSet

	// Tracer, when non-nil, observes directory state transitions.
	Tracer *trace.Tracer

	Stats Stats
}

// traceState emits a directory transition. Callers guard on d.Tracer.
func (d *DCOH) traceState(a mem.LineAddr, old int, note string) {
	l := d.lines.Peek(a)
	new := dI
	if l != nil {
		new = l.state
	}
	d.Tracer.State(d.k.Now(), d.id, a, dname(old), dname(new), note)
}

// New builds a DCOH with its backing device memory.
func New(id msg.NodeID, k *sim.Kernel, net network.Fabric, dram *mem.DRAM) *DCOH {
	return &DCOH{id: id, k: k, net: net, dram: dram, Lat: 4}
}

// ID returns the DCOH's network id.
func (d *DCOH) ID() msg.NodeID { return d.id }

// DRAM exposes the device memory for initialization and checks.
func (d *DCOH) DRAM() *mem.DRAM { return d.dram }

// line returns a's record, creating an untouched one if absent. The
// pointer is valid until the next line call or kernel event.
func (d *DCOH) line(a mem.LineAddr) *dline {
	l := d.lines.Get(a)
	if l == nil {
		l = d.lines.Put(a)
		l.owner = msg.None
	}
	return l
}

// send queues m on the outbox; it leaves Lat cycles later. Every
// message waits the same Lat, so the events fire in push order and
// each pops the head: no closure per message.
func (d *DCOH) send(m *msg.Msg) {
	m.Src = d.id
	d.out.Push(m)
	d.k.ScheduleArg(d.k.Now()+d.Lat, sendNext, d)
}

// sendNext is the outbox event: the oldest queued message leaves.
func sendNext(a any) {
	d := a.(*DCOH)
	d.net.Send(d.out.Pop())
}

// Recv implements network.Port.
func (d *DCOH) Recv(m *msg.Msg) {
	if d.dead.Has(m.Src) {
		// A message from an isolated host (delivered in the same tick the
		// crash landed): host isolation already reclaimed its state, so
		// the message is stale by definition.
		return
	}
	switch m.Type {
	case msg.BIConflict:
		// Answered immediately, even for busy lines: the FIFO response
		// channel makes the ack's position meaningful.
		d.Stats.Conflicts++
		d.send(&msg.Msg{Type: msg.BIConflictAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
	case msg.MemRdA, msg.MemRdS:
		l := d.line(m.Addr)
		if l.busy() {
			d.Stats.Stalls++
			l.queue = append(l.queue, m)
			return
		}
		d.startRead(l, m)
	case msg.MemWrI, msg.MemWrS:
		d.Stats.Writes++
		d.handleWrite(m)
	case msg.BISnpRspI, msg.BISnpRspS:
		d.handleSnpRsp(m)
	default:
		panic(fmt.Sprintf("cxl: DCOH got unexpected %v", m))
	}
}

func (d *DCOH) startRead(l *dline, m *msg.Msg) {
	d.Stats.Reads++
	l.cur = tx{req: m}
	want := msg.BISnpData
	if m.Type == msg.MemRdA {
		want = msg.BISnpInv
	}
	// Collect the peers that must be snooped.
	var targets []msg.NodeID
	switch l.state {
	case dE, dM:
		if l.owner != m.Src {
			targets = append(targets, l.owner)
		}
	case dS:
		if m.Type == msg.MemRdA {
			// Ascending id order: snoop issue order is deterministic.
			l.sharers.ForEach(func(h msg.NodeID) {
				if h != m.Src {
					targets = append(targets, h)
				}
			})
		}
	}
	if len(targets) == 0 {
		d.finishRead(l)
		return
	}
	for _, h := range targets {
		l.cur.pending.Add(h)
		d.Stats.Snoops++
		d.send(&msg.Msg{Type: want, Addr: m.Addr, Dst: h, VNet: msg.VSnp})
	}
}

func (d *DCOH) handleSnpRsp(m *msg.Msg) {
	l := d.lines.Get(m.Addr)
	if l == nil || !l.busy() || !l.cur.pending.Has(m.Src) {
		panic(fmt.Sprintf("cxl: unexpected snoop response %v", m))
	}
	l.cur.pending.Remove(m.Src)
	if m.Data != nil && m.Dirty {
		l.cur.data = *m.Data
		l.cur.dirty = true
		if m.Poisoned {
			l.poisoned = true
		}
	}
	if m.Type == msg.BISnpRspS {
		l.cur.keptS.Add(m.Src)
	}
	if l.cur.pending.Empty() {
		d.settle(l)
	}
}

// handleWrite absorbs a MemWr, both the standalone owner-eviction flow
// and the nested "CXL WB" a snooped dirty host performs before its
// BISnpRsp (Fig. 2).
func (d *DCOH) handleWrite(m *msg.Msg) {
	l := d.line(m.Addr)
	if m.Data == nil {
		panic("cxl: MemWr without data")
	}
	// Only the registered owner's data is authoritative; a stale write
	// (the host was invalidated while its eviction was in flight) is
	// acknowledged and dropped.
	snoopedWB := l.busy() && l.cur.pending.Has(m.Src)
	if l.owner == m.Src || snoopedWB {
		d.dram.Write(m.Addr, *m.Data, nil)
		if m.Poisoned {
			// Poison follows the data home: the device memory copy is now
			// the poisoned one.
			l.poisoned = true
		}
		if !snoopedWB {
			// Standalone eviction: update directory state now.
			old := l.state
			if m.Type == msg.MemWrI {
				l.state = dI
				l.owner = msg.None
			} else { // MemWrS: writeback, retain shared copy
				l.state = dS
				l.sharers.Add(m.Src)
				l.owner = msg.None
			}
			if d.Tracer != nil {
				d.traceState(m.Addr, old, m.Type.String())
			}
		}
	}
	d.send(&msg.Msg{Type: msg.CmpWr, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
}

// settle runs when all snoop responses are in: commit dirty data, then
// finish from device memory. The write's completion looks the line up
// again: the record may have moved while the write was in flight.
func (d *DCOH) settle(l *dline) {
	if l.cur.dirty {
		a := l.cur.req.Addr
		d.dram.Write(a, l.cur.data, func() { d.finishRead(d.lines.Get(a)) })
		return
	}
	d.finishRead(l)
}

// abortRead retires a transaction whose requestor died: snoop results
// are already committed (settle), so record what the snoops left behind
// and move on without granting.
func (d *DCOH) abortRead(l *dline) {
	cur := l.cur
	oldState := l.state
	l.owner = msg.None
	l.sharers = 0
	cur.keptS.ForEach(func(s msg.NodeID) {
		if !d.dead.Has(s) {
			l.sharers.Add(s)
		}
	})
	if !l.sharers.Empty() {
		l.state = dS
	} else {
		l.state = dI
	}
	l.cur = tx{}
	if d.Tracer != nil {
		d.traceState(cur.req.Addr, oldState, "aborted "+cur.req.Type.String())
	}
	d.drain(l)
}

// finishRead reads device memory and grants. The read's completion
// looks the line up again by address.
func (d *DCOH) finishRead(l *dline) {
	if l.cur.aborted {
		d.abortRead(l)
		return
	}
	a := l.cur.req.Addr
	d.dram.Read(a, func(data mem.Data) {
		l := d.lines.Get(a)
		cur := &l.cur
		h := cur.req.Src
		if cur.aborted || d.dead.Has(h) {
			// The requestor crashed while the memory read was in flight.
			d.abortRead(l)
			return
		}
		oldState := l.state
		req := cur.req
		rsp := &msg.Msg{Addr: a, Dst: h, VNet: msg.VRsp,
			Data: msg.WithData(data), Poisoned: l.poisoned}
		if req.Type == msg.MemRdA {
			rsp.Type = msg.CmpM
			l.state = dM
			l.owner = h
			l.sharers = 0
		} else {
			// Shared read: exclusive-clean when no one else holds it.
			l.sharers.ForEach(func(s msg.NodeID) {
				if s != h {
					cur.keptS.Add(s)
				}
			})
			if l.state == dE || l.state == dM {
				// Previous owner downgraded (kept a copy iff it said so).
			}
			l.owner = msg.None
			l.sharers = cur.keptS
			l.sharers.Add(h)
			if l.sharers.Len() == 1 {
				rsp.Type = msg.CmpE
				l.state = dE
				l.owner = h
			} else {
				rsp.Type = msg.CmpS
				l.state = dS
			}
		}
		l.cur = tx{}
		if d.Tracer != nil {
			d.traceState(a, oldState, req.Type.String())
		}
		d.send(rsp)
		d.drain(l)
	})
}

// drain re-dispatches requests that queued behind the finished
// transaction.
func (d *DCOH) drain(l *dline) {
	if len(l.queue) == 0 || l.busy() {
		return
	}
	next := l.queue[0]
	l.queue = l.queue[1:]
	// Re-enter through the normal path on a fresh event so timing (and
	// the model checker) see a distinct step.
	d.k.After(1, func() { d.Recv(next) })
}

// StateOf reports the directory view of a line, for tests and the model
// checker's invariants.
func (d *DCOH) StateOf(a mem.LineAddr) (state string, owner msg.NodeID, sharers []msg.NodeID) {
	l := d.lines.Peek(a)
	if l == nil {
		return "I", msg.None, nil
	}
	return dname(l.state), l.owner, l.sharers.IDs()
}

// Busy reports whether a transaction is in flight for line a.
func (d *DCOH) Busy(a mem.LineAddr) bool {
	l := d.lines.Peek(a)
	return l != nil && l.busy()
}

// Reclaim summarizes one host-isolation walk.
type Reclaim struct {
	// Reclaimed counts directory entries (owner or sharer slots) that
	// named the dead host and were scrubbed.
	Reclaimed int
	// Poisoned counts lines whose only up-to-date copy died with the
	// host; PoisonedLines lists them (sorted).
	Poisoned      int
	PoisonedLines []mem.LineAddr
	// NAKed counts in-flight transactions from the dead host that were
	// aborted instead of granted.
	NAKed int
}

// ReclaimHost runs the CXL host-isolation walk for a crashed host: scrub
// h from every sharer vector, poison lines h held exclusively (dE is
// silently dirtiable, so it is treated like dM — data lost), release
// in-flight transactions so surviving waiters unblock, and drop h's
// queued requests. Lines are walked in address order so any messages the
// walk releases are scheduled deterministically.
func (d *DCOH) ReclaimHost(h msg.NodeID) Reclaim {
	d.dead.Add(h)
	var r Reclaim
	poison := func(a mem.LineAddr, l *dline) {
		if l.poisoned {
			return
		}
		l.poisoned = true
		r.Poisoned++
		r.PoisonedLines = append(r.PoisonedLines, a)
	}
	for _, a := range d.lines.Lines(nil) {
		l := d.lines.Get(a)
		if l.busy() {
			if l.cur.req.Src == h {
				// The requestor died. Keep the transaction open until the
				// surviving snoop responses land (their data still needs
				// committing), but never grant it.
				l.cur.aborted = true
				r.NAKed++
			}
			if l.cur.pending.Has(h) {
				// A snoop to the dead host will never be answered. If it
				// held the exclusive copy and no dirty data arrived, the
				// only current copy died with it.
				l.cur.pending.Remove(h)
				if (l.state == dE || l.state == dM) && l.owner == h && !l.cur.dirty {
					poison(a, l)
				}
				if l.cur.pending.Empty() {
					d.settle(l)
				}
			}
		}
		if l.sharers.Has(h) {
			l.sharers.Remove(h)
			r.Reclaimed++
			if l.sharers.Empty() && l.state == dS && !l.busy() {
				l.state = dI
			}
		}
		if l.owner == h {
			r.Reclaimed++
			if l.state == dE || l.state == dM {
				poison(a, l)
			}
			l.owner = msg.None
			if !l.busy() && (l.state == dE || l.state == dM) {
				l.state = dI
			}
		}
		if len(l.queue) > 0 {
			// A fresh array: a clone may share this one (mem.Clipper).
			var kept []*msg.Msg
			for _, m := range l.queue {
				if m.Src == h {
					r.NAKed++
					continue
				}
				kept = append(kept, m)
			}
			l.queue = kept
		}
	}
	slices.Sort(r.PoisonedLines)
	return r
}

// ReferencesHost reports whether any directory state still names h —
// the post-reclamation isolation invariant must find none. The requestor
// of an aborted transaction does not count: ReclaimHost has already
// NAKed it, and the transaction stays open only to collect the
// surviving snoop responses, never to grant.
func (d *DCOH) ReferencesHost(h msg.NodeID) bool {
	found := false
	d.lines.ForEachRO(func(_ mem.LineAddr, l *dline) {
		if l.owner == h || l.sharers.Has(h) {
			found = true
		}
		if l.busy() && (l.cur.pending.Has(h) || l.cur.req.Src == h && !l.cur.aborted) {
			found = true
		}
		for _, m := range l.queue {
			if m.Src == h {
				found = true
			}
		}
	})
	return found
}

// PoisonedLine reports whether a's data has been lost to a crash.
func (d *DCOH) PoisonedLine(a mem.LineAddr) bool {
	l := d.lines.Peek(a)
	return l != nil && l.poisoned
}

// ReviveHost re-admits a previously reclaimed host (crash rejoin): its
// messages are accepted again. The host must come back cold — its state
// was reclaimed at crash time and is not restored. Poison is sticky.
func (d *DCOH) ReviveHost(h msg.NodeID) { d.dead.Remove(h) }
