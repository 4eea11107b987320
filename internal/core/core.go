// Package core implements C3, the CXL coherence controller — the paper's
// primary contribution. One C3 instance sits at the junction of a host
// cluster's local coherence protocol and the global protocol (CXL.mem or
// the hierarchical-MESI baseline), fusing a local directory controller
// with a global cache controller (Fig. 5).
//
// The controller is driven by the compound translation table produced by
// internal/gen from the two protocols' SSP specs. The runtime provides
// the generic machinery the table cannot capture:
//
//   - Rule I (flow delegation): requests that the compound state cannot
//     satisfy locally allocate a TBE and nest the corresponding flow in
//     the other domain; device snoops with local copies nest the local
//     reclaim flow.
//   - Rule II (atomicity / transaction nesting): while a nested flow is
//     pending, all same-line messages from the origin domain stall on the
//     TBE and are re-dispatched at completion, making every forwarded
//     transaction appear atomic in its origin domain.
//   - CXL conflict resolution (Fig. 2): a snoop arriving while a request
//     is pending triggers BIConflict; the FIFO response channel then
//     reveals the directory's serialization order — completion-first
//     means "finish, then serve the snoop fresh", ack-first means "serve
//     the snoop now, nested inside the wait, and keep waiting".
//   - CXL-cache evictions (Fig. 7): reclaim host copies with a conceptual
//     store, then run the CXL writeback sequence, then resume the request
//     that needed the frame.
package core

import (
	"fmt"
	"slices"

	"c3/internal/cache"
	"c3/internal/gen"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
	"c3/internal/ssp"
	"c3/internal/trace"
)

// Encoded global classes stored in cache.Entry.State.
const (
	gI = iota
	gS
	gE
	gM
)

func gclassOf(code int) ssp.Class {
	return [...]ssp.Class{ssp.ClsI, ssp.ClsS, ssp.ClsE, ssp.ClsM}[code]
}

func gcode(c ssp.Class) int {
	switch c {
	case ssp.ClsI:
		return gI
	case ssp.ClsS:
		return gS
	case ssp.ClsE:
		return gE
	case ssp.ClsM:
		return gM
	}
	panic("core: bad global class " + string(c))
}

// ldir is the local directory record for one line: which host caches
// hold it and in what role.
type ldir struct {
	class   ssp.Class
	owner   msg.NodeID
	fwd     msg.NodeID // MESIF designated forwarder
	sharers msg.NodeSet
}

// TBE phases.
type phase uint8

const (
	phGlobal   phase = iota // nested global acquire outstanding
	phSubSnoop              // serving a snoop nested inside phGlobal
	phLocal                 // nested local flow outstanding
	phWB                    // global writeback outstanding
)

// TBE kinds.
type tKind uint8

const (
	tLocal tKind = iota // serving a host request
	tSnoop              // serving a device snoop
	tEvict              // replacing a CXL-cache line
)

// tbe is a line's transaction buffer, held by value in the C3's TBE
// table. Its message pointers name sent, immutable messages.
type tbe struct {
	addr  mem.LineAddr
	kind  tKind
	entry gen.Entry
	ph    phase

	req *msg.Msg // original host request (tLocal)
	snp *msg.Msg // snoop being served (tSnoop) / pending sub-snoop

	// Local flow bookkeeping.
	pendingRsp  int // SnpRsp* awaited
	pendingAcks int // InvAcks awaited
	absorbDirty bool

	// Global acquire bookkeeping.
	haveData  bool
	needAcks  int
	haveAcks  int
	acksKnown bool
	grantE    bool // completion granted exclusivity (CmpE/GDataE)

	// Conflict handshake (CXL) / held completion.
	conflict *msg.Msg // snoop awaiting BIConflictAck
	heldCmp  *msg.Msg // completion held until the ack reveals the order
	// subEntry is the table entry of a snoop served nested inside a
	// global wait (phSubSnoop).
	subEntry gen.Entry

	// Eviction bookkeeping.
	evData  mem.Data
	evValid bool

	// Rule II: same-line messages stalled until this TBE retires.
	stalled []*msg.Msg
	// resume is re-dispatched after an eviction frees the frame.
	resume *msg.Msg
}

// Clip implements mem.Clipper.
func (t *tbe) Clip() { t.stalled = slices.Clip(t.stalled) }

// Stats aggregates C3 telemetry.
type Stats struct {
	LocalReqs         uint64 // host requests received
	Delegations       uint64 // Rule I global acquires
	SnoopsServed      uint64 // device snoops handled
	Conflicts         uint64 // BIConflict handshakes initiated
	ConflictsDirFirst uint64 // handshakes resolved "directory first" (nested snoop)
	Evictions         uint64 // CXL-cache replacements
	Writebacks        uint64 // global dirty writebacks
	Stalled           uint64 // messages stalled on a TBE (Rule II)
	// Hybrid-memory traffic (Sec. IV-D4 extension).
	LocalMemReads  uint64
	LocalMemWrites uint64
}

// Config assembles one C3 instance.
type Config struct {
	ID        msg.NodeID
	GlobalDir msg.NodeID
	Kernel    *sim.Kernel
	// LocalNet delivers to host caches; GlobalNet to the global
	// directory. They may be the same fabric.
	LocalNet  network.Fabric
	GlobalNet network.Fabric
	Table     *gen.Table
	LLCSize   int // bytes (Table III: 4 MiB)
	LLCWays   int
	// Lat is the controller occupancy per outgoing message, the same on
	// both fabrics, so the outbox's messages leave in the order sent.
	Lat sim.Time

	// Hybrid memory (Sec. IV-D4): when LocalRange reports true for a
	// line, the line is homed in this cluster's local memory — C3 serves
	// it as an ordinary memory-side cache without any global protocol
	// traffic, while remote (CXL pool) lines take the compound-FSM path.
	// Local lines are exclusively this cluster's by construction, so no
	// device snoops ever target them.
	LocalRange func(mem.LineAddr) bool
	LocalMem   *mem.DRAM
}

// outMsg is a message waiting out the controller latency, and the
// fabric it leaves on.
type outMsg struct {
	m      *msg.Msg
	global bool
}

// C3 is one coherence controller instance.
type C3 struct {
	cfg   Config
	k     *sim.Kernel
	table *gen.Table
	llc   *cache.Cache
	// dirs and tbes are the per-line local directory and transaction
	// buffers (see mem.Table for the pointer rules).
	dirs mem.Table[ldir]
	tbes mem.Table[tbe]
	// out holds the messages waiting out cfg.Lat, oldest first.
	out sim.FIFO[outMsg]

	// Tracer, when non-nil, observes compound-state commits. Set before
	// the simulation starts; nil keeps every hook a single branch.
	Tracer *trace.Tracer

	Stats Stats
}

// compoundState renders the stable compound state of a line as "L/G"
// (local class / global class), the paper's Table II notation.
func (c *C3) compoundState(a mem.LineAddr) string {
	return string(c.lclass(a)) + "/" + string(c.gclass(a))
}

// traceCommit emits a compound transition; old is the compoundState
// captured before the mutation. Callers guard with c.Tracer != nil.
func (c *C3) traceCommit(a mem.LineAddr, old, note string) {
	c.Tracer.State(c.k.Now(), c.cfg.ID, a, old, c.compoundState(a), note)
}

// New builds a C3 from cfg.
func New(cfg Config) *C3 {
	if cfg.LLCSize == 0 {
		cfg.LLCSize = 4 << 20
	}
	if cfg.LLCWays == 0 {
		cfg.LLCWays = 8
	}
	if cfg.Lat == 0 {
		cfg.Lat = 2
	}
	return &C3{
		cfg:   cfg,
		k:     cfg.Kernel,
		table: cfg.Table,
		llc:   cache.New(cfg.LLCSize, cfg.LLCWays),
	}
}

// ID returns the controller's network id.
func (c *C3) ID() msg.NodeID { return c.cfg.ID }

// Table exposes the compound table (for tooling).
func (c *C3) Table() *gen.Table { return c.table }

// LLC exposes the CXL cache for tests and invariant checks.
func (c *C3) LLC() *cache.Cache { return c.llc }

func (c *C3) initialLocal() ssp.Class { return c.table.Local.Classes[0] }

// isLocalLine reports whether a line is homed in this cluster's local
// memory (hybrid configurations only).
func (c *C3) isLocalLine(a mem.LineAddr) bool {
	return c.cfg.LocalRange != nil && c.cfg.LocalMem != nil && c.cfg.LocalRange(a)
}

// dir returns a's local directory record, creating an untouched one if
// absent. The pointer is valid until the next dir call.
func (c *C3) dir(a mem.LineAddr) *ldir {
	d := c.dirs.Get(a)
	if d == nil {
		d = c.dirs.Put(a)
		*d = ldir{class: c.initialLocal(), owner: msg.None, fwd: msg.None}
	}
	return d
}

// lclass reports the local stable class of a line.
func (c *C3) lclass(a mem.LineAddr) ssp.Class {
	if d := c.dirs.Peek(a); d != nil {
		return d.class
	}
	return c.initialLocal()
}

// gclass reports the global stable class of a line. Read-only: ProbeRO
// keeps invariant checks and dumps from materializing a shared snapshot.
func (c *C3) gclass(a mem.LineAddr) ssp.Class {
	if e := c.llc.ProbeRO(a); e != nil {
		return gclassOf(e.State)
	}
	return ssp.ClsI
}

func (c *C3) sendLocal(m *msg.Msg) {
	m.Src = c.cfg.ID
	c.send(outMsg{m: m})
}

func (c *C3) sendGlobal(m *msg.Msg) {
	m.Src = c.cfg.ID
	if m.Dst == 0 {
		m.Dst = c.cfg.GlobalDir
	}
	c.send(outMsg{m: m, global: true})
}

// send queues o on the outbox; it leaves cfg.Lat cycles later. Every
// message waits the same Lat, so the events fire in push order and
// each pops the head: no closure per message.
func (c *C3) send(o outMsg) {
	c.out.Push(o)
	c.k.ScheduleArg(c.k.Now()+c.cfg.Lat, sendNext, c)
}

// sendNext is the outbox event: the oldest queued message leaves.
func sendNext(a any) {
	c := a.(*C3)
	o := c.out.Pop()
	if o.global {
		c.cfg.GlobalNet.Send(o.m)
	} else {
		c.cfg.LocalNet.Send(o.m)
	}
}

// Recv implements network.Port for both fabrics.
func (c *C3) Recv(m *msg.Msg) {
	switch m.Type {
	// Host-side requests.
	case msg.GetS, msg.GetM, msg.GetV, msg.WrThrough, msg.AtomicAdd, msg.AtomicXchg:
		c.localRequest(m)
	case msg.PutS, msg.PutE, msg.PutM, msg.PutO:
		c.localPut(m)
	case msg.SyncRel, msg.SyncAcq:
		// The host cache has already flushed/invalidated; the CXL cache
		// itself is always globally coherent, so the sync point is
		// immediate (Sec. IV-D2).
		c.sendLocal(&msg.Msg{Type: msg.SyncAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
	// Host-side responses to our nested local flows.
	case msg.InvAck, msg.SnpRspData, msg.SnpRspInv:
		c.localRsp(m)
	// Global domain: CXL.
	case msg.CmpS, msg.CmpE, msg.CmpM:
		c.cxlCmp(m)
	case msg.CmpWr:
		c.cmpWr(m)
	case msg.BIConflictAck:
		c.cxlConflictAck(m)
	case msg.BISnpInv, msg.BISnpData:
		c.globalSnoop(m)
	// Global domain: hierarchical MESI.
	case msg.GData, msg.GDataE, msg.GDataS, msg.GDataM:
		c.hmesiData(m)
	case msg.GInvAck:
		c.hmesiInvAck(m)
	case msg.GPutAck:
		c.cmpWr(m)
	case msg.GFwdGetS, msg.GFwdGetM, msg.GInv:
		c.globalSnoop(m)
	default:
		panic(fmt.Sprintf("core: C3 %d got unexpected %v", c.cfg.ID, m))
	}
}

func trigOf(t msg.Type) gen.Trigger {
	switch t {
	case msg.GetS:
		return "GetS"
	case msg.GetM:
		return "GetM"
	case msg.GetV:
		return "GetV"
	case msg.WrThrough:
		return "WrThrough"
	case msg.AtomicAdd, msg.AtomicXchg:
		return "Atomic"
	}
	panic(fmt.Sprintf("core: no trigger for %v", t))
}

// localRequest handles a host cache request (the left column of the
// compound table).
func (c *C3) localRequest(m *msg.Msg) {
	if t := c.tbes.Get(m.Addr); t != nil {
		// Rule II: the line is mid-transaction; stall.
		c.Stats.Stalled++
		t.stalled = append(t.stalled, m)
		return
	}
	c.Stats.LocalReqs++
	e := c.llc.Probe(m.Addr)
	ent := c.table.Lookup(trigOf(m.Type), c.lclass(m.Addr), c.gclass(m.Addr))

	if ent.GlobalOp == gen.GAcqS || ent.GlobalOp == gen.GAcqM {
		// Rule I: delegate to the global domain. Reserve the frame first
		// so the completion always has a home.
		if e == nil {
			if !c.llc.HasSpace(m.Addr) {
				c.evictFor(m)
				return
			}
			e = c.llc.Install(m.Addr)
			e.State = gI
		}
		*c.tbes.Put(m.Addr) = tbe{addr: m.Addr, kind: tLocal, entry: ent, ph: phGlobal, req: m}
		if c.isLocalLine(m.Addr) {
			// Hybrid configuration: this cluster is the line's home.
			// Fetch from local memory and self-complete with exclusive
			// rights — no global protocol traffic. The completion looks
			// the TBE up again by line.
			c.Stats.LocalMemReads++
			c.cfg.LocalMem.Read(m.Addr, func(data mem.Data) {
				c.completeAcquire(c.tbes.Get(m.Addr), &msg.Msg{Type: msg.CmpM, Addr: m.Addr,
					Data: msg.WithData(data)})
			})
			return
		}
		c.Stats.Delegations++
		op := c.table.AcqSOp
		if ent.GlobalOp == gen.GAcqM {
			op = c.table.AcqMOp
		}
		c.sendGlobal(&msg.Msg{Type: op, Addr: m.Addr, VNet: msg.VReq})
		return
	}

	// Locally satisfiable: run the native local flow, then grant.
	if e == nil {
		panic(fmt.Sprintf("core: local serve of %v with no CXL-cache entry", m))
	}
	c.llc.Touch(e)
	t := c.tbes.Put(m.Addr)
	*t = tbe{addr: m.Addr, kind: tLocal, entry: ent, ph: phLocal, req: m}
	if c.startLocalFlow(t, ent.Plan, m.Src) {
		return
	}
	c.grant(t)
}

// grant finishes a host request: hand the line (or the scalar result)
// to the requestor and commit the compound state transition.
func (c *C3) grant(t *tbe) {
	m := t.req
	e := c.llc.Probe(t.addr)
	if e == nil {
		panic("core: grant with no CXL-cache entry")
	}
	d := c.dir(t.addr)
	ent := t.entry
	var preState string
	if c.Tracer != nil {
		preState = c.compoundState(t.addr)
	}

	g := ent.Grant
	if t.grantE && g == ssp.GrantS && c.table.Local.Params.GrantE {
		g = ssp.GrantE
	}

	switch m.Type {
	case msg.GetS, msg.GetM, msg.GetV:
		if !e.DataValid {
			panic(fmt.Sprintf("core: granting %v without valid data", m))
		}
		var ty msg.Type
		switch g {
		case ssp.GrantS:
			ty = msg.DataS
		case ssp.GrantE:
			ty = msg.DataE
		case ssp.GrantM:
			ty = msg.DataM
		case ssp.GrantV:
			ty = msg.DataV
		default:
			panic("core: grantless data request")
		}
		c.sendLocal(&msg.Msg{Type: ty, Addr: t.addr, Dst: m.Src, VNet: msg.VRsp,
			Data: msg.WithData(e.Data), Poisoned: e.Poisoned})
	case msg.WrThrough:
		// Merge the host's dirty words into the CXL cache (word masks
		// keep concurrent writers to distinct words intact).
		for w := 0; w < mem.LineWords; w++ {
			if m.Mask&(1<<w) != 0 {
				e.Data.SetWord(w, m.Data.Word(w))
			}
		}
		e.DataValid = true
		c.sendLocal(&msg.Msg{Type: msg.PutAck, Addr: t.addr, Dst: m.Src, VNet: msg.VRsp})
	case msg.AtomicAdd, msg.AtomicXchg:
		if !e.DataValid {
			panic("core: atomic on invalid data")
		}
		old := e.Data.Word(m.Word)
		if m.Type == msg.AtomicAdd {
			e.Data.SetWord(m.Word, old+m.Val)
		} else {
			e.Data.SetWord(m.Word, m.Val)
		}
		c.sendLocal(&msg.Msg{Type: msg.AtomicResp, Addr: t.addr, Dst: m.Src,
			VNet: msg.VRsp, Val: old, Poisoned: e.Poisoned})
	default:
		panic(fmt.Sprintf("core: grant for %v", m))
	}

	// Commit local directory state.
	nextL := ent.Next.L
	switch g {
	case ssp.GrantM:
		d.owner = m.Src
		d.fwd = msg.None
		d.sharers = 0
	case ssp.GrantE:
		d.owner = m.Src
		d.fwd = msg.None
		d.sharers = 0
		// An exclusive-clean grant leaves the directory in the owner
		// class (M covers E/M: silent upgrades).
		nextL = ssp.ClsM
	case ssp.GrantS:
		d.sharers.Add(m.Src)
		if nextL != ssp.ClsO {
			if d.owner != msg.None {
				// Downgraded owner becomes a plain sharer.
				d.sharers.Add(d.owner)
				d.owner = msg.None
			}
		}
		if c.table.Local.Params.Forwarder {
			d.fwd = m.Src
		}
	case ssp.GrantV:
		// Untracked.
	}
	d.class = nextL

	// Commit global state.
	nextG := ent.Next.G
	if t.grantE && nextG == ssp.ClsS {
		nextG = ssp.ClsE
	}
	e.State = gcode(nextG)
	if c.Tracer != nil {
		c.traceCommit(t.addr, preState, "grant "+m.Type.String())
	}
	c.retire(t)
}

// retire frees the TBE and re-dispatches everything Rule II stalled.
// Device snoops are served first and synchronously: a stream of local
// requests (e.g. a spin lock ping-ponging between host caches) must not
// starve the global domain, or the remote cluster's unlock — and with it
// the whole system — would never make progress.
func (c *C3) retire(t *tbe) {
	msgs, resume := t.stalled, t.resume
	c.tbes.Delete(t.addr)
	var local []*msg.Msg
	if resume != nil {
		local = append(local, resume)
	}
	for _, m := range msgs {
		if c.isGlobalSnoopType(m.Type) {
			c.Recv(m)
		} else {
			local = append(local, m)
		}
	}
	// Local re-dispatch is synchronous too: a deferred re-dispatch would
	// tie with (and lose to) the just-served requestor's next request
	// arriving off the network, starving the queue head forever (e.g. an
	// unlock store behind two spinning lock requests). The first stalled
	// request claims the fresh TBE; the rest re-stall onto it in order,
	// so FIFO service is preserved.
	for _, m := range local {
		c.Recv(m)
	}
}

func (c *C3) isGlobalSnoopType(t msg.Type) bool {
	switch t {
	case msg.BISnpInv, msg.BISnpData, msg.GFwdGetS, msg.GFwdGetM, msg.GInv:
		return true
	}
	return false
}

// localPut handles host cache evictions: pure directory bookkeeping,
// never delegated (clean and dirty data both stay in the inclusive CXL
// cache; global writebacks happen only on CXL-cache evictions).
func (c *C3) localPut(m *msg.Msg) {
	if t := c.tbes.Get(m.Addr); t != nil {
		c.Stats.Stalled++
		t.stalled = append(t.stalled, m)
		return
	}
	d := c.dir(m.Addr)
	e := c.llc.Probe(m.Addr)
	var preState string
	if c.Tracer != nil {
		preState = c.compoundState(m.Addr)
	}
	switch m.Type {
	case msg.PutS:
		if d.sharers.Has(m.Src) {
			d.sharers.Remove(m.Src)
			if d.fwd == m.Src {
				d.fwd = msg.None
				if d.class == ssp.ClsF {
					d.class = ssp.ClsS
				}
			}
			if d.sharers.Empty() && (d.class == ssp.ClsS || d.class == ssp.ClsF) {
				d.class = ssp.ClsI
			}
		}
	case msg.PutE, msg.PutM, msg.PutO:
		if d.owner == m.Src {
			if m.Data != nil && e != nil {
				e.Data = *m.Data
				e.DataValid = true
			}
			d.owner = msg.None
			if !d.sharers.Empty() {
				d.class = ssp.ClsS
			} else {
				d.class = ssp.ClsI
			}
		} else if d.sharers.Has(m.Src) {
			// A downgraded owner's stale PutM/PutO: treat as PutS.
			d.sharers.Remove(m.Src)
			if d.sharers.Empty() && (d.class == ssp.ClsS || d.class == ssp.ClsF) {
				d.class = ssp.ClsI
			}
		}
	}
	if c.Tracer != nil {
		c.traceCommit(m.Addr, preState, "put "+m.Type.String())
	}
	c.sendLocal(&msg.Msg{Type: msg.PutAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
}

// PeerDead reacts to a peer cluster's C3 being declared dead (host
// crash). Under hierarchical MESI the directory hands invalidations to
// peers on our behalf and we count their GInvAcks; an ack owed by the
// dead peer will never arrive, so forgive it and complete the wait. The
// directory's own reclamation walk scrubbed the dead peer from its
// sharer vectors, so the forgiven ack cannot be resurrected. With two
// clusters this is exact (the only possible acker is the dead peer);
// with more it is a documented approximation — each surviving C3
// forgives at most one ack per waiting line. CXL C3s wait only on the
// surviving DCOH and need no repair. Returns the number of waits
// repaired (counted as NAKed transactions in recovery stats).
func (c *C3) PeerDead(dead msg.NodeID) int {
	if c.isCXL() {
		return 0
	}
	// Address-order walk: completing a wait sends grants, and the walk
	// re-dispatches stalled messages, so the order is observable.
	n := 0
	for _, a := range c.tbes.Lines(nil) {
		t := c.tbes.Get(a)
		if t == nil || t.kind != tLocal || t.ph != phGlobal {
			continue
		}
		if t.acksKnown && t.haveAcks < t.needAcks {
			t.needAcks--
			n++
			c.maybeCompleteHmesi(t)
		}
	}
	return n
}

// Reset cold-starts the controller for a host rejoin: every TBE, local
// directory record and CXL-cache line is dropped. Safe only when the
// cluster's caches restart empty too (the crash already discarded their
// contents) and the global side has reclaimed this node. The old
// CXL cache's slab returns to the pool.
func (c *C3) Reset() {
	c.tbes.Release()
	c.dirs.Release()
	c.llc.Release()
	c.llc = cache.New(c.cfg.LLCSize, c.cfg.LLCWays)
}
