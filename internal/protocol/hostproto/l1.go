// Package hostproto implements the host-side private cache controllers —
// the "existing host hardware" C3 integrates with, which the paper keeps
// unmodified (Rule I delegation means all translation lives in C3, not
// here).
//
// Two controllers are provided:
//
//   - L1: an invalidation-based MESI-family cache, parameterized into the
//     MESI, MOESI and MESIF dialects (does a load-snooped dirty owner
//     downgrade to S or keep O; is there a designated forwarder F).
//   - RCCL1 (rcc.go): a self-invalidating release-consistency cache that
//     write-combines dirty words locally and synchronizes on
//     acquire/release, GPU style.
//
// Both implement cpu.MemPort toward the core and network.Port toward the
// cluster interconnect. Their directory is the local side of the C3
// controller (internal/core).
package hostproto

import (
	"fmt"
	"slices"

	"c3/internal/cache"
	"c3/internal/cpu"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
	"c3/internal/trace"
)

// Variant selects the MESI-family dialect.
type Variant uint8

const (
	MESI Variant = iota
	MOESI
	MESIF
)

func (v Variant) String() string {
	switch v {
	case MESI:
		return "MESI"
	case MOESI:
		return "MOESI"
	case MESIF:
		return "MESIF"
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// Stable line states stored in cache.Entry.State.
const (
	stS    = iota + 1 // shared clean
	stE               // exclusive clean
	stM               // modified
	stO               // owned dirty (MOESI)
	stF               // shared, designated forwarder (MESIF)
	stPend            // frame reserved for an outstanding miss
)

func stateName(s int) string {
	return [...]string{"?", "S", "E", "M", "O", "F", "Pend"}[s]
}

// Classify reports what an L1 line state grants its holder, for
// checkers outside the package: valid, a readable copy (S, E, M, O,
// F); writable, write permission (E, M); owns, the copy is or may
// silently become the line's authoritative data (E, M, O). An invalid
// frame and one reserved for a miss grant nothing.
func Classify(state int) (valid, writable, owns bool) {
	switch state {
	case stE, stM:
		return true, true, true
	case stO:
		return true, false, true
	case stS, stF:
		return true, false, false
	}
	return false, false, false
}

// pendingOp is a core request queued on a line transaction. done is
// nil for a tracked request (Token != 0) at an L1: its reply goes to the
// L1's one core callback, so queued ops hold no closure.
type pendingOp struct {
	req   cpu.Request
	done  func(cpu.Response)
	start sim.Time
}

// reply is a core response waiting out the hit latency.
type reply struct {
	done func(cpu.Response)
	r    cpu.Response
}

// replyQueue is an L1's FIFO of replies in flight to its core. Every
// reply is scheduled HitLatency ahead, so the replies' events fire in
// queue order and each one pops the head: no closure per reply.
type replyQueue struct{ sim.FIFO[reply] }

// schedule queues op's response and its delivery event.
func (q *replyQueue) schedule(k *sim.Kernel, lat sim.Time, op pendingOp, r cpu.Response) {
	r.Token = op.req.Token
	q.Push(reply{done: op.done, r: r})
	k.ScheduleArg(k.Now()+lat, deliverReply, q)
}

// deliverReply is the reply event: it hands the queue's oldest response
// to its core.
func deliverReply(a any) {
	r := a.(*replyQueue).Pop()
	r.done(r.r)
}

// reqTBE tracks an outstanding GetS/GetM, held by value in the L1's
// request table.
type reqTBE struct {
	addr    mem.LineAddr
	wantM   bool // GetM outstanding (else GetS)
	ops     []pendingOp
	started sim.Time
	// stalledSnps holds owner snoops that raced ahead of our grant on
	// the snoop channel; they are served once the fill lands.
	stalledSnps []*msg.Msg
	// invalidated records an Inv that raced our DataS grant: the fill
	// may satisfy only the loads already queued (use-once, the primer's
	// ISI_D), then the line dies.
	invalidated bool
	opsAtInv    int
}

// Clip implements mem.Clipper.
func (t *reqTBE) Clip() {
	t.ops = slices.Clip(t.ops)
	t.stalledSnps = slices.Clip(t.stalledSnps)
}

// Evict TBE states.
const (
	evSIA = iota + 1 // PutS sent
	evEIA            // PutE sent
	evMIA            // PutM sent (data in TBE)
	evOIA            // PutO sent (data in TBE)
	evIIA            // invalidated while awaiting PutAck
)

type evictTBE struct {
	addr     mem.LineAddr
	state    int
	data     mem.Data
	poisoned bool
}

// Config for an L1 instance.
type Config struct {
	Variant    Variant
	SizeBytes  int
	Ways       int
	HitLatency sim.Time
}

// DefaultConfig matches Table III: 128 KiB, 8-way, 1-cycle private cache.
func DefaultConfig(v Variant) Config {
	return Config{Variant: v, SizeBytes: 128 * 1024, Ways: 8, HitLatency: 1}
}

// L1 is one private MESI-family cache.
type L1 struct {
	id  msg.NodeID
	dir msg.NodeID
	k   *sim.Kernel
	net network.Fabric
	c   *cache.Cache
	cfg Config
	// reqs and evs are the per-line request and eviction TBEs (see
	// mem.Table for the pointer rules).
	reqs mem.Table[reqTBE]
	evs  mem.Table[evictTBE]
	// deferred holds ops stalled on set-conflict pressure (no frame and
	// no evictable victim); retried on every completion.
	deferred []pendingOp
	replies  replyQueue
	// done is the core's completion callback, kept from its tracked
	// Accesses (cpu.MemPort: the core passes the same one to every
	// call); replies to tracked ops go to it.
	done func(cpu.Response)

	// Accesses/Misses drive MPKI accounting.
	Accesses, Misses uint64

	// Tracer, when non-nil, observes line state transitions.
	Tracer *trace.Tracer
}

// traceState emits a line transition. Callers guard on l.Tracer; 0 means
// the line is absent (invalid).
func (l *L1) traceState(a mem.LineAddr, old, new int, note string) {
	os, ns := "I", "I"
	if old != 0 {
		os = stateName(old)
	}
	if new != 0 {
		ns = stateName(new)
	}
	l.Tracer.State(l.k.Now(), l.id, a, os, ns, note)
}

// NewL1 builds an L1 attached to kernel k, sending through net to its
// cluster directory dir.
func NewL1(id, dir msg.NodeID, k *sim.Kernel, net network.Fabric, cfg Config) *L1 {
	if cfg.SizeBytes == 0 {
		cfg = DefaultConfig(cfg.Variant)
	}
	return &L1{
		id: id, dir: dir, k: k, net: net,
		c:   cache.New(cfg.SizeBytes, cfg.Ways),
		cfg: cfg,
	}
}

// ID returns the cache's network id.
func (l *L1) ID() msg.NodeID { return l.id }

// Cache exposes the underlying array for tests and invariant checks.
func (l *L1) Cache() *cache.Cache { return l.c }

// NeedsSyncOps implements cpu.MemPort: MESI-family caches handle fences
// purely with core-side ordering.
func (l *L1) NeedsSyncOps() bool { return false }

func (l *L1) send(m *msg.Msg) {
	m.Src = l.id
	if m.Dst == 0 {
		m.Dst = l.dir
	}
	l.net.Send(m)
}

// Access implements cpu.MemPort.
func (l *L1) Access(req cpu.Request, done func(cpu.Response)) {
	if req.Kind == cpu.Prefetch || req.Kind == cpu.PrefetchS {
		l.prefetch(req.Addr.Line(), req.Kind == cpu.Prefetch, done)
		return
	}
	l.Accesses++
	op := pendingOp{req: req, done: done, start: l.k.Now()}
	if req.Token != 0 {
		l.done, op.done = done, nil
	}
	l.start(op)
}

// prefetch warms a line for an upcoming access: ownership (wantM, the
// store-buffer RFO) or a shared copy (a speculative load). Non-binding:
// no rider op, no reply value; a later real access rides or hits the
// transaction.
func (l *L1) prefetch(line mem.LineAddr, wantM bool, done func(cpu.Response)) {
	defer done(cpu.Response{})
	if l.reqs.Peek(line) != nil || l.evs.Peek(line) != nil {
		return
	}
	ty := msg.GetS
	if wantM {
		ty = msg.GetM
	}
	if e := l.c.Probe(line); e != nil {
		if !wantM || e.State == stM || e.State == stE {
			return // already good enough
		}
		// Upgrade in place.
		*l.reqs.Put(line) = reqTBE{addr: line, wantM: true, started: l.k.Now()}
		l.send(&msg.Msg{Type: msg.GetM, Addr: line, VNet: msg.VReq})
		return
	}
	if !l.c.HasSpace(line) {
		v := l.c.VictimFunc(line, l.evictable)
		if v == nil {
			return // set under pressure; skip the hint
		}
		l.evictEntry(v)
	}
	f := l.c.Install(line)
	f.State = stPend
	*l.reqs.Put(line) = reqTBE{addr: line, wantM: wantM, started: l.k.Now()}
	l.send(&msg.Msg{Type: ty, Addr: line, VNet: msg.VReq})
}

func (l *L1) start(op pendingOp) {
	line := op.req.Addr.Line()
	if t := l.reqs.Get(line); t != nil {
		// A transaction is already in flight; ride it.
		if op.req.Kind.IsWrite() && !t.wantM {
			// The pending GetS cannot satisfy a write; the replay loop
			// will upgrade after the fill.
			l.Misses++
		}
		t.ops = append(t.ops, op)
		return
	}
	e := l.c.Lookup(line)
	if e != nil && e.State != stPend {
		if l.tryHit(e, op) {
			return
		}
		// Upgrade path: S/F/O + write.
		l.Misses++
		*l.reqs.Put(line) = reqTBE{addr: line, wantM: true, ops: []pendingOp{op}, started: l.k.Now()}
		l.send(&msg.Msg{Type: msg.GetM, Addr: line, VNet: msg.VReq})
		return
	}
	if e != nil && e.State == stPend {
		// Frame reserved by a racing evict+refill; treat as existing TBE
		// (should have been caught above) — defensive.
		panic("hostproto: pending frame without TBE")
	}
	// Miss: reserve a frame (evicting if necessary), then request.
	l.Misses++
	if !l.c.HasSpace(line) {
		v := l.c.VictimFunc(line, l.evictable)
		if v == nil {
			// Set exhausted by outstanding misses; retry later.
			l.deferred = append(l.deferred, op)
			return
		}
		l.evictEntry(v)
	}
	f := l.c.Install(line)
	f.State = stPend
	wantM := op.req.Kind.IsWrite()
	*l.reqs.Put(line) = reqTBE{addr: line, wantM: wantM, ops: []pendingOp{op}, started: l.k.Now()}
	ty := msg.GetS
	if wantM {
		ty = msg.GetM
	}
	l.send(&msg.Msg{Type: ty, Addr: line, VNet: msg.VReq})
}

// tryHit services op against a stable entry; false means a transaction
// is required.
func (l *L1) tryHit(e *cache.Entry, op pendingOp) bool {
	switch op.req.Kind {
	case cpu.Load:
		l.reply(op, e.Data.Word(op.req.Addr.WordIndex()), false, e.Poisoned)
		l.c.Touch(e)
		return true
	case cpu.Store:
		if e.State == stM || e.State == stE {
			if l.Tracer != nil && e.State == stE {
				// The silent upgrade no directory can see.
				l.traceState(e.Addr, stE, stM, "store hit")
			}
			e.State = stM // silent E->M upgrade
			e.Data.SetWord(op.req.Addr.WordIndex(), op.req.Val)
			l.c.Touch(e)
			l.reply(op, 0, false, false)
			return true
		}
		return false
	case cpu.RMWAdd, cpu.RMWXchg:
		if e.State == stM || e.State == stE {
			e.State = stM
			w := op.req.Addr.WordIndex()
			old := e.Data.Word(w)
			if op.req.Kind == cpu.RMWAdd {
				e.Data.SetWord(w, old+op.req.Val)
			} else {
				e.Data.SetWord(w, op.req.Val)
			}
			l.c.Touch(e)
			l.reply(op, old, false, e.Poisoned)
			return true
		}
		return false
	}
	panic(fmt.Sprintf("hostproto: unexpected core op %v", op.req.Kind))
}

func (l *L1) reply(op pendingOp, val uint64, missed, poisoned bool) {
	r := cpu.Response{Val: val, Missed: missed, Poisoned: poisoned}
	if missed {
		r.MissLatency = l.k.Now() - op.start
	}
	if op.done == nil {
		op.done = l.done
	}
	l.replies.schedule(l.k, l.cfg.HitLatency, op, r)
}

// evictable approves replacement victims: stable lines with no request
// or eviction transaction in flight.
func (l *L1) evictable(e *cache.Entry) bool {
	return e.State != stPend && l.reqs.Peek(e.Addr) == nil && l.evs.Peek(e.Addr) == nil
}

func (l *L1) evictEntry(e *cache.Entry) {
	if l.evs.Peek(e.Addr) != nil {
		panic("hostproto: double eviction")
	}
	t := l.evs.Put(e.Addr)
	*t = evictTBE{addr: e.Addr, data: e.Data, poisoned: e.Poisoned}
	var ty msg.Type
	withData := false
	switch e.State {
	case stS:
		t.state, ty = evSIA, msg.PutS
	case stF:
		t.state, ty = evSIA, msg.PutS
	case stE:
		t.state, ty = evEIA, msg.PutE
	case stM:
		t.state, ty, withData = evMIA, msg.PutM, true
	case stO:
		t.state, ty, withData = evOIA, msg.PutO, true
	default:
		panic(fmt.Sprintf("hostproto: evicting entry in state %s", stateName(e.State)))
	}
	if l.Tracer != nil {
		l.traceState(e.Addr, e.State, 0, "evict "+ty.String())
	}
	l.c.Remove(e)
	m := &msg.Msg{Type: ty, Addr: t.addr, VNet: msg.VReq}
	if withData {
		m.Data = msg.WithData(t.data)
		m.Dirty = true
		m.Poisoned = t.poisoned
	}
	l.send(m)
}

// Recv implements network.Port for messages from the cluster directory.
func (l *L1) Recv(m *msg.Msg) {
	switch m.Type {
	case msg.DataS, msg.DataE, msg.DataM:
		l.fill(m)
	case msg.Inv:
		l.invalidate(m)
	case msg.SnpData:
		l.snoopData(m)
	case msg.SnpInv:
		l.snoopInv(m)
	case msg.PutAck:
		if l.evs.Peek(m.Addr) != nil {
			l.evs.Delete(m.Addr)
			l.retryDeferred()
		}
	default:
		panic(fmt.Sprintf("hostproto: L1 %d got unexpected %v", l.id, m))
	}
}

func (l *L1) fill(m *msg.Msg) {
	p := l.reqs.Peek(m.Addr)
	if p == nil {
		panic(fmt.Sprintf("hostproto: fill with no TBE: %v", m))
	}
	// The transaction retires: keep a copy, since replaying its ops may
	// open the line's next one.
	t := *p
	l.reqs.Delete(m.Addr)

	if m.Type == msg.DataS && t.invalidated {
		// An Inv overtook this grant: the data is valid exactly at our
		// transaction's serialization point. Serve the loads that were
		// queued when the Inv arrived, drop the line, and re-request for
		// anything else.
		l.fillUseOnce(m, &t)
		l.retryDeferred()
		return
	}

	e := l.c.Probe(m.Addr)
	if e == nil {
		// Frame was reclaimed by a snoop during an upgrade; re-reserve.
		if !l.c.HasSpace(m.Addr) {
			v := l.c.VictimFunc(m.Addr, l.evictable)
			if v == nil {
				panic("hostproto: no frame for fill")
			}
			l.evictEntry(v)
		}
		e = l.c.Install(m.Addr)
	}
	e.Data = *m.Data
	e.Poisoned = m.Poisoned
	old := e.State
	switch m.Type {
	case msg.DataS:
		e.State = stS
		if l.cfg.Variant == MESIF {
			e.State = stF // the newest sharer is the forwarder
		}
	case msg.DataE:
		e.State = stE
	case msg.DataM:
		e.State = stM
	}
	if l.Tracer != nil {
		l.traceState(m.Addr, old, e.State, m.Type.String())
	}
	// Our transaction's queued ops complete against the granted state
	// first; owner snoops that raced ahead are serialized after it.
	l.replay(&t, e)
	for _, snp := range t.stalledSnps {
		l.Recv(snp)
	}
	l.retryDeferred()
}

// fillUseOnce implements the use-once fill after a racing invalidation.
func (l *L1) fillUseOnce(m *msg.Msg, t *reqTBE) {
	if e := l.c.Probe(m.Addr); e != nil && e.State == stPend {
		l.c.Remove(e)
	}
	n := t.opsAtInv
	if n > len(t.ops) {
		n = len(t.ops)
	}
	rest := t.ops[n:]
	for i := 0; i < n; i++ {
		op := t.ops[i]
		if op.req.Kind != cpu.Load {
			// A write cannot use a revoked shared copy; re-request it
			// and everything younger.
			rest = t.ops[i:]
			break
		}
		l.replyMiss(op, m.Data.Word(op.req.Addr.WordIndex()), m.Poisoned)
	}
	for _, op := range rest {
		l.start(op)
	}
	for _, snp := range t.stalledSnps {
		l.Recv(snp)
	}
}

// replay drains queued ops against the now-stable entry; ops that need a
// further transaction (e.g. a queued store after a GetS fill) start one.
func (l *L1) replay(t *reqTBE, e *cache.Entry) {
	for i, op := range t.ops {
		switch op.req.Kind {
		case cpu.Load:
			l.replyMiss(op, e.Data.Word(op.req.Addr.WordIndex()), e.Poisoned)
		case cpu.Store:
			if e.State == stM || e.State == stE {
				e.State = stM
				e.Data.SetWord(op.req.Addr.WordIndex(), op.req.Val)
				l.replyMiss(op, 0, false)
				continue
			}
			l.upgrade(t, e, t.ops[i:])
			return
		case cpu.RMWAdd, cpu.RMWXchg:
			if e.State == stM || e.State == stE {
				e.State = stM
				w := op.req.Addr.WordIndex()
				old := e.Data.Word(w)
				if op.req.Kind == cpu.RMWAdd {
					e.Data.SetWord(w, old+op.req.Val)
				} else {
					e.Data.SetWord(w, op.req.Val)
				}
				l.replyMiss(op, old, e.Poisoned)
				continue
			}
			l.upgrade(t, e, t.ops[i:])
			return
		}
	}
}

func (l *L1) replyMiss(op pendingOp, val uint64, poisoned bool) {
	l.reply(op, val, true, poisoned)
}

// upgrade issues a GetM for remaining ops after a shared fill.
func (l *L1) upgrade(old *reqTBE, e *cache.Entry, rest []pendingOp) {
	*l.reqs.Put(old.addr) = reqTBE{addr: old.addr, wantM: true, started: l.k.Now(),
		ops: append([]pendingOp(nil), rest...)}
	l.send(&msg.Msg{Type: msg.GetM, Addr: old.addr, VNet: msg.VReq})
}

func (l *L1) invalidate(m *msg.Msg) {
	if t := l.evs.Get(m.Addr); t != nil {
		t.state = evIIA
		l.send(&msg.Msg{Type: msg.InvAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
		return
	}
	e := l.c.Probe(m.Addr)
	if e == nil || e.State == stPend {
		// We hold no data: ack immediately so the directory's count
		// balances. If a shared grant is in flight it becomes use-once
		// (see fillUseOnce).
		if t := l.reqs.Get(m.Addr); t != nil && !t.invalidated {
			t.invalidated = true
			t.opsAtInv = len(t.ops)
		}
		l.send(&msg.Msg{Type: msg.InvAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
		return
	}
	switch e.State {
	case stS, stF:
		if l.Tracer != nil {
			l.traceState(m.Addr, e.State, 0, "Inv")
		}
		l.c.Remove(e)
		l.send(&msg.Msg{Type: msg.InvAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
	default:
		panic(fmt.Sprintf("hostproto: Inv of %s line %v at L1 %d", stateName(e.State), m.Addr, l.id))
	}
}

func (l *L1) snoopData(m *msg.Msg) {
	if l.stallOwnerSnoop(m) {
		return
	}
	if t := l.evs.Get(m.Addr); t != nil {
		dirty := t.state == evMIA || t.state == evOIA
		rsp := &msg.Msg{Type: msg.SnpRspData, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp,
			Data: msg.WithData(t.data), Dirty: dirty, Poisoned: t.poisoned}
		t.state = evSIA // now just a shared evictor
		l.send(rsp)
		return
	}
	e := l.c.Probe(m.Addr)
	if e == nil {
		// The copy disappeared while the snoop was parked (use-once
		// invalidation); answer clean so the directory falls back to its
		// own copy.
		l.send(&msg.Msg{Type: msg.SnpRspData, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
		return
	}
	dirty := false
	old := e.State
	switch e.State {
	case stM:
		dirty = true
		if l.cfg.Variant == MOESI {
			e.State = stO
		} else {
			e.State = stS
		}
	case stO:
		dirty = true // stays O: dirty sharer keeps responsibility
	case stE, stF:
		e.State = stS
	case stS:
		// Forward request served from a clean sharer (MESIF demotion
		// races); respond clean.
	default:
		panic(fmt.Sprintf("hostproto: SnpData in state %s", stateName(e.State)))
	}
	if l.Tracer != nil && e.State != old {
		l.traceState(m.Addr, old, e.State, "SnpData")
	}
	l.send(&msg.Msg{Type: msg.SnpRspData, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp,
		Data: msg.WithData(e.Data), Dirty: dirty, Poisoned: e.Poisoned})
}

// stallOwnerSnoop parks an owner snoop that reached us before the data
// we have been granted (intra-cluster channels are point-to-point
// ordered across vnets, so this can only happen for a frame with no
// data yet: the grant is in flight and guaranteed to arrive). A snoop
// against a stable entry is answered from it directly.
func (l *L1) stallOwnerSnoop(m *msg.Msg) bool {
	if l.reqs.Peek(m.Addr) == nil || l.evs.Peek(m.Addr) != nil {
		return false
	}
	if e := l.c.Probe(m.Addr); e != nil && e.State != stPend {
		return false
	}
	t := l.reqs.Get(m.Addr)
	t.stalledSnps = append(t.stalledSnps, m)
	return true
}

func (l *L1) snoopInv(m *msg.Msg) {
	if l.stallOwnerSnoop(m) {
		return
	}
	if t := l.evs.Get(m.Addr); t != nil {
		dirty := t.state == evMIA || t.state == evOIA
		rsp := &msg.Msg{Type: msg.SnpRspInv, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp}
		if dirty {
			rsp.Data = msg.WithData(t.data)
			rsp.Dirty = true
			rsp.Poisoned = t.poisoned
		}
		t.state = evIIA
		l.send(rsp)
		return
	}
	e := l.c.Probe(m.Addr)
	if e == nil || e.State == stPend {
		// Copy already gone; clean response keeps the flow moving.
		l.send(&msg.Msg{Type: msg.SnpRspInv, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
		return
	}
	rsp := &msg.Msg{Type: msg.SnpRspInv, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp, Poisoned: e.Poisoned}
	switch e.State {
	case stM, stO:
		rsp.Data = msg.WithData(e.Data)
		rsp.Dirty = true
	case stE, stS, stF:
		rsp.Data = msg.WithData(e.Data)
	}
	if l.Tracer != nil {
		l.traceState(m.Addr, e.State, 0, "SnpInv")
	}
	l.c.Remove(e)
	l.send(rsp)
}

func (l *L1) retryDeferred() {
	if len(l.deferred) == 0 {
		return
	}
	ops := l.deferred
	l.deferred = nil
	for _, op := range ops {
		l.start(op)
	}
}
