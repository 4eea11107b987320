// Package cpu models the processor cores of each cluster: a simplified
// out-of-order engine with a memory-operation window and a store buffer,
// parameterized by memory consistency model (MCM).
//
// The paper simulates MCM heterogeneity with gem5's needsTSO flag rather
// than distinct ISAs, "to isolate performance differences attributable to
// the MCM". This package does the same isolation directly: an ordering
// matrix decides when an operation may issue or retire relative to older
// operations in the window, and the store buffer decides how stores drain:
//
//   - SC: every operation waits for all older operations.
//   - TSO (x86): load-load, load-store and store-store order are enforced;
//     store-load is relaxed through the FIFO store buffer, with
//     store-to-load forwarding. RMWs and fences drain the buffer.
//   - WMO (Arm-like weak): everything may reorder except same-address
//     program order, explicit fences, and acquire/release annotations;
//     the store buffer drains out of order with multiple misses in flight.
//
// Cores talk to their private L1 through the MemPort interface; the L1
// protocol controllers in internal/protocol implement it.
package cpu

import (
	"fmt"
	"math/rand/v2"

	"c3/internal/mem"
	"c3/internal/sim"
)

// MCM selects the memory consistency model a core enforces.
type MCM uint8

const (
	// WMO is the weakly ordered model (Arm-like); the paper's default.
	WMO MCM = iota
	// TSO is total store order (x86; gem5's needsTSO).
	TSO
	// SC is sequential consistency, for reference/ablation runs.
	SC
)

func (m MCM) String() string {
	switch m {
	case WMO:
		return "ARM"
	case TSO:
		return "TSO"
	case SC:
		return "SC"
	}
	return fmt.Sprintf("MCM(%d)", uint8(m))
}

// MarshalText renders m as its name (String), so JSON carries "ARM",
// "TSO" or "SC" rather than the enum number. A value with no name is an
// error.
func (m MCM) MarshalText() ([]byte, error) {
	if m > SC {
		return nil, fmt.Errorf("cpu: cannot marshal unknown %v", m)
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a name as ParseMCM does; an unknown name is an
// error and leaves m unchanged.
func (m *MCM) UnmarshalText(b []byte) error {
	v, err := ParseMCM(string(b))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// ParseMCM converts a config string ("arm"/"weak", "tso", "sc").
func ParseMCM(s string) (MCM, error) {
	switch s {
	case "arm", "ARM", "weak", "wmo", "WMO":
		return WMO, nil
	case "tso", "TSO", "x86":
		return TSO, nil
	case "sc", "SC":
		return SC, nil
	}
	return 0, fmt.Errorf("cpu: unknown MCM %q (want arm|tso|sc)", s)
}

// Kind is a memory operation type.
type Kind uint8

const (
	Load Kind = iota
	Store
	RMWAdd    // atomic fetch-and-add, returns old value
	RMWXchg   // atomic exchange, returns old value
	Fence     // full barrier
	Acquire   // standalone acquire barrier (RCC load-acquire side)
	Release   // standalone release barrier (RCC store-release side)
	Prefetch  // non-binding request for ownership (store-buffer RFO)
	PrefetchS // non-binding request for a shared copy (speculative load)
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "LD"
	case Store:
		return "ST"
	case RMWAdd:
		return "RMW+"
	case RMWXchg:
		return "XCHG"
	case Fence:
		return "FENCE"
	case Acquire:
		return "ACQ"
	case Release:
		return "REL"
	case Prefetch:
		return "PF"
	case PrefetchS:
		return "PFS"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMem reports whether k accesses memory (vs. a pure ordering op).
func (k Kind) IsMem() bool { return k <= RMWXchg }

// IsWrite reports whether k writes memory.
func (k Kind) IsWrite() bool { return k == Store || k == RMWAdd || k == RMWXchg }

// IsRMW reports whether k is an atomic read-modify-write.
func (k Kind) IsRMW() bool { return k == RMWAdd || k == RMWXchg }

// Instr is one instruction delivered by a Source.
type Instr struct {
	Kind Kind
	Addr mem.Addr
	Val  uint64 // store value / RMW operand
	Reg  int    // destination register for loads/RMWs (Source bookkeeping)
	Acq  bool   // acquire annotation on a load
	Rel  bool   // release annotation on a store
	// CtrlDep stops fetch until this instruction completes (a conditional
	// branch depends on it; used for spin loops and litmus dependency
	// variants).
	CtrlDep bool
}

// Source feeds a core its instruction stream. Next is called when the
// core has fetch room; Complete reports results (loads and RMWs) so the
// source can implement spins and dependent control flow.
type Source interface {
	Next() (Instr, bool)
	Complete(in Instr, loaded uint64)
}

// Request is a memory access the core sends to its L1.
type Request struct {
	Kind Kind
	Addr mem.Addr
	Val  uint64
	// Acq/Rel annotate acquire loads and release stores, which
	// self-invalidating (RCC) caches act on directly.
	Acq, Rel bool
	// Token identifies the in-flight operation to the issuing core. The
	// L1 echoes it in Response.Token, so one callback per core serves
	// every access, and a cache snapshot (model-checker Clone) rebinds
	// its pending completions to a cloned core by swapping that one
	// callback. 0 means untracked (non-binding prefetches, which may
	// complete inline).
	Token uint64
}

// Response reports a finished L1 access.
type Response struct {
	// Token echoes Request.Token, so one callback per core can route
	// every completion to the operation it finishes.
	Token uint64
	Val   uint64
	// Missed is true when the access left the L1 (any coherence traffic).
	Missed bool
	// MissLatency is the L1 occupancy time of the access when Missed.
	MissLatency sim.Time
	// Poisoned marks a load whose data came from a poisoned line (link
	// retry exhaustion, or the only copy was lost with a crashed host).
	Poisoned bool
}

// MemPort is the core's view of its private cache. Implementations must
// invoke done exactly once per request and preserve per-address request
// order from a single core. For tracked requests (Token != 0) done runs
// from a later kernel event, never inside Access, and its Response.Token
// equals Request.Token; the core passes the same done to every call.
// Untracked prefetches may complete inline.
type MemPort interface {
	Access(req Request, done func(Response))
	// NeedsSyncOps reports whether Fence/Acquire/Release must be sent to
	// the cache (RCC self-invalidate/flush) rather than handled purely by
	// core-side ordering.
	NeedsSyncOps() bool
}

// Config sizes the core.
type Config struct {
	MCM        MCM
	WindowSize int // max in-flight memory ops tracked by the core
	SBSize     int // store buffer entries
	// SBDrainWays is how many store-buffer entries may be draining to the
	// L1 at once. TSO forces 1 (FIFO); WMO/default uses this value.
	SBDrainWays int
	// IssueJitter/DrainJitter add a random delay of up to the given
	// number of cycles before an already-permitted load issue or store
	// drain. Ordering constraints are enforced before the delay, so
	// jitter only widens legal interleavings — the litmus runner uses it
	// to explore relaxed behaviours; performance runs leave it at 0.
	IssueJitter int
	DrainJitter int
	// Seed makes the jitter reproducible.
	Seed int64
	// SpecDepth bounds speculative load warming for in-order-binding
	// models (TSO/SC): at most this many loads may be in flight
	// (issued or warmed) at once. Models the limited speculation window
	// that makes TSO measurably slower than weak ordering on miss-heavy
	// code. 0 -> 4. WMO ignores it (loads issue freely).
	SpecDepth int
}

// DefaultConfig returns a reasonable 8-wide-OoO-like configuration
// (192-entry ROB scaled to memory ops).
func DefaultConfig(m MCM) Config {
	return Config{MCM: m, WindowSize: 24, SBSize: 12, SBDrainWays: 8, SpecDepth: 10}
}

// OpStats records completed-operation telemetry the stats package
// aggregates into the Fig. 11 breakdowns.
type OpStats struct {
	Kind     Kind
	Addr     mem.Addr
	Missed   bool
	Latency  sim.Time // miss latency when Missed
	Poisoned bool     // data consumed from a poisoned line
}

// Core is one simulated hardware thread.
type Core struct {
	ID  int
	cfg Config
	k   *sim.Kernel
	l1  MemPort
	src Source

	window []*uop
	sb     []*sbEntry
	// freeU and freeSB recycle retired window records and drained
	// store-buffer entries, so steady-state fetch and issue do not
	// allocate.
	freeU  []*uop
	freeSB []*sbEntry
	// respondFn is the core's one L1 completion callback (c.respond),
	// passed to every tracked Access: the response token says which
	// operation it finishes.
	respondFn func(Response)

	fetchOK  bool // false while a CtrlDep op is outstanding
	srcDone  bool
	halted   bool
	pumpEvt  bool // an evaluate() is already scheduled
	finished bool

	nextSeq uint64

	// Observe, when non-nil, sees every completed memory operation.
	Observe func(OpStats)

	rng *rand.Rand

	// Retired counts completed instructions (for MPKI).
	Retired     uint64
	FinishedAt  sim.Time
	onFinish    func()
	outstanding int // ops currently issued to L1 (loads/RMW/sync)
}

type uop struct {
	core     *Core // for the closure-free local-completion event
	in       Instr
	seq      uint64
	val      uint64
	issued   bool
	done     bool
	forwards bool // load satisfied by store forwarding
	warmed   bool // speculative prefetch issued while ordering blocks us
}

type sbEntry struct {
	addr     mem.Addr
	val      uint64
	rel      bool
	draining bool
	seq      uint64
}

// New creates a core. onFinish (may be nil) runs once when the source is
// exhausted and all operations have drained.
func New(id int, k *sim.Kernel, cfg Config, l1 MemPort, src Source, onFinish func()) *Core {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 24
	}
	if cfg.SBSize <= 0 {
		cfg.SBSize = 12
	}
	if cfg.SBDrainWays <= 0 {
		cfg.SBDrainWays = 8
	}
	if cfg.MCM != WMO {
		// TSO and SC drain the store buffer in order, one at a time.
		cfg.SBDrainWays = 1
	}
	if cfg.SpecDepth <= 0 {
		cfg.SpecDepth = 10
	}
	c := &Core{ID: id, cfg: cfg, k: k, l1: l1, src: src, fetchOK: true, onFinish: onFinish}
	c.respondFn = c.respond
	if cfg.IssueJitter > 0 || cfg.DrainJitter > 0 {
		c.rng = rand.New(rand.NewPCG(uint64(cfg.Seed)^0x7f, uint64(id+1)*0x9e3779b97f4a7c15))
	}
	return c
}

func (c *Core) jitter(n int) sim.Time {
	if n <= 0 || c.rng == nil {
		return 0
	}
	return sim.Time(c.rng.IntN(n))
}

// Start begins execution.
func (c *Core) Start() { c.pump() }

// Finished reports whether the core has drained entirely.
func (c *Core) Finished() bool { return c.finished }

func (c *Core) pump() {
	if c.pumpEvt || c.halted {
		return
	}
	c.pumpEvt = true
	c.k.ScheduleArg(c.k.Now()+1, pumpEvent, c)
}

// pumpEvent is the pump's kernel callback: a package-level func with the
// core as argument, so scheduling it allocates nothing.
func pumpEvent(a any) {
	c := a.(*Core)
	c.pumpEvt = false
	c.evaluate()
}

// evaluate advances fetch, issue, and store-buffer drain.
func (c *Core) evaluate() {
	c.fetch()
	c.issue()
	c.drainSB()
	c.checkFinished()
}

func (c *Core) fetch() {
	for !c.srcDone && c.fetchOK && len(c.window) < c.cfg.WindowSize {
		in, ok := c.src.Next()
		if !ok {
			c.srcDone = true
			break
		}
		var u *uop
		if n := len(c.freeU); n > 0 {
			u = c.freeU[n-1]
			c.freeU = c.freeU[:n-1]
		} else {
			u = new(uop)
		}
		*u = uop{core: c, in: in, seq: c.nextSeq}
		c.nextSeq++
		c.window = append(c.window, u)
		if in.CtrlDep {
			c.fetchOK = false
		}
	}
}

// olderOps summarizes the incomplete operations older than the one the
// issue pass is looking at, so deciding whether an op may issue is one
// lookup rather than a rescan of the older window. The ordering rules,
// for an incomplete older op o and a younger op y:
//
//   - fences, acquire/release barriers and RMWs (full fences on x86 and
//     Arm lock primitives) block everything younger, on every model;
//   - so does an acquire load;
//   - same-line memory ops stay in program order (coherence);
//   - SC: every incomplete op blocks everything younger;
//   - TSO: loads block everything younger (LL, LS); stores do not block
//     younger loads (SL relaxed through the store buffer), and
//     store-store order is kept by the FIFO drain;
//   - WMO: nothing else.
//
// All but the same-line rule ignore y, so they fold into blockAll; the
// same-line rule needs the lines of older incomplete memory ops.
type olderOps struct {
	mcm        MCM
	blockAll   bool   // an older incomplete op orders everything younger
	incomplete bool   // some older op is incomplete
	filter     uint64 // filterBit of every line held
	// stores has the filterBit of every older store's address, complete
	// or not: store-to-load forwarding scans the window only on a hit.
	stores uint64
	// The lines of older incomplete memory ops: a fixed array that
	// covers the default window without allocating, then spill.
	n     int
	lines [32]mem.LineAddr
	spill []mem.LineAddr
}

// blocks reports whether some older incomplete op must complete before u
// may proceed.
func (s *olderOps) blocks(u *uop) bool {
	if s.blockAll {
		return true
	}
	if !u.in.Kind.IsMem() {
		return false
	}
	l := u.in.Addr.Line()
	if s.filter&filterBit(uint64(l)) == 0 {
		return false
	}
	for _, o := range s.lines[:s.n] {
		if o == l {
			return true
		}
	}
	for _, o := range s.spill {
		if o == l {
			return true
		}
	}
	return false
}

// add folds u into the summary once it is older than the ops still to be
// looked at.
func (s *olderOps) add(u *uop) {
	if u.in.Kind == Store {
		s.stores |= filterBit(uint64(u.in.Addr))
	}
	if u.done {
		return
	}
	s.incomplete = true
	if s.blockAll {
		return
	}
	switch k := u.in.Kind; {
	case k == Fence || k == Acquire || k == Release || k.IsRMW(),
		k == Load && u.in.Acq,
		s.mcm == SC,
		s.mcm == TSO && k == Load:
		s.blockAll = true
	case k.IsMem():
		l := u.in.Addr.Line()
		s.filter |= filterBit(uint64(l))
		if s.n < len(s.lines) {
			s.lines[s.n] = l
			s.n++
		} else {
			s.spill = append(s.spill, l)
		}
	}
}

// filterBit picks one of 64 bits by a multiplicative hash of an address,
// so arrays at power-of-two distances do not share bits.
func filterBit(a uint64) uint64 { return 1 << (a * 0x9e3779b97f4a7c15 >> 58) }

// forwardFrom returns the youngest older store (in window or SB) to the
// same address, for store-to-load forwarding; older summarizes the
// window ahead of u.
func (c *Core) forwardFrom(u *uop, older *olderOps) (uint64, bool) {
	if older.stores&filterBit(uint64(u.in.Addr)) != 0 {
		// Youngest first; window seqs are consecutive.
		for i := int(u.seq-c.window[0].seq) - 1; i >= 0; i-- {
			if o := c.window[i]; o.in.Kind == Store && o.in.Addr == u.in.Addr {
				return o.in.Val, true
			}
		}
	}
	var val uint64
	found := false
	for _, s := range c.sb {
		if s.addr == u.in.Addr {
			val, found = s.val, true
		}
	}
	return val, found
}

// issue walks the window once in program order, issuing every op the
// ordering rules and the store buffer allow. Nothing it issues completes
// during the walk (tracked completions arrive from later events), so the
// summary of older incomplete ops only grows.
func (c *Core) issue() {
	// TSO/SC loads wait for older loads to complete (in-order binding),
	// but hardware still brings the line in speculatively: a blocked load
	// warms the cache so the binding access hits, up to a speculation
	// budget. Non-binding, so legal across any ordering constraint.
	warm := c.cfg.MCM != WMO && !c.l1.NeedsSyncOps()
	specLeft := 0
	if warm {
		specLeft = c.cfg.SpecDepth
		for _, u := range c.window {
			if u.in.Kind == Load && !u.done && (u.issued || u.warmed) {
				specLeft--
			}
		}
	}
	older := olderOps{mcm: c.cfg.MCM}
	for _, u := range c.window {
		if older.blockAll && specLeft <= 0 {
			break // nothing younger may issue or warm
		}
		if u.issued || u.done {
			older.add(u)
			continue
		}
		if older.blocks(u) {
			if u.in.Kind == Load && !u.warmed && specLeft > 0 {
				u.warmed = true
				specLeft--
				c.l1.Access(Request{Kind: PrefetchS, Addr: u.in.Addr}, ignoreResponse)
			}
			older.add(u)
			continue
		}
		c.issueOne(u, &older)
		older.add(u)
	}
}

// ignoreResponse completes untracked prefetches.
func ignoreResponse(Response) {}

// issueOne issues u, which no older op blocks, if its kind's own
// conditions (store-buffer room and drain, older completion) hold.
func (c *Core) issueOne(u *uop, older *olderOps) {
	switch u.in.Kind {
	case Load:
		// SC: a load may not bypass buffered stores; wait for drain
		// unless the value forwards.
		if c.cfg.MCM == SC && len(c.sb) > 0 {
			if v, fwd := c.forwardFrom(u, older); fwd {
				u.issued = true
				u.forwards = true
				c.completeLocal(u, v)
			}
			return
		}
		if v, ok := c.forwardFrom(u, older); ok {
			u.issued = true
			u.forwards = true
			c.completeLocal(u, v)
			return
		}
		u.issued = true
		c.issueToL1(u, Request{Kind: Load, Addr: u.in.Addr, Acq: u.in.Acq})
	case Store:
		// A store retires into the store buffer once ordering allows;
		// it completes from the window's perspective immediately.
		if len(c.sb) >= c.cfg.SBSize {
			return // SB full; retry on next pump
		}
		// A release store may not enter the SB ahead of undrained
		// older (release-ordered) state: modelled by requiring the
		// whole SB to drain first, plus a sync op for RCC caches.
		if u.in.Rel && (len(c.sb) > 0 || older.incomplete) {
			return
		}
		u.issued = true
		var e *sbEntry
		if n := len(c.freeSB); n > 0 {
			e = c.freeSB[n-1]
			c.freeSB = c.freeSB[:n-1]
		} else {
			e = new(sbEntry)
		}
		*e = sbEntry{addr: u.in.Addr, val: u.in.Val, rel: u.in.Rel, seq: u.seq}
		c.sb = append(c.sb, e)
		if c.cfg.MCM != WMO && !c.l1.NeedsSyncOps() {
			// FIFO-draining models issue a non-binding ownership
			// prefetch so store misses overlap (hardware RFO
			// prefetching); the drain itself stays in order.
			c.l1.Access(Request{Kind: Prefetch, Addr: u.in.Addr}, ignoreResponse)
		}
		c.completeLocal(u, 0)
	case RMWAdd, RMWXchg:
		// Atomics are full fences: all older ops complete and the
		// store buffer drains before they issue.
		if len(c.sb) > 0 || older.incomplete {
			return
		}
		u.issued = true
		c.issueToL1(u, Request{Kind: u.in.Kind, Addr: u.in.Addr, Val: u.in.Val})
	case Fence, Acquire, Release:
		// Ordering ops wait for every older op and an empty SB.
		if older.incomplete || len(c.sb) > 0 {
			return
		}
		u.issued = true
		if c.l1.NeedsSyncOps() {
			c.issueToL1(u, Request{Kind: u.in.Kind})
		} else {
			c.completeLocal(u, 0)
		}
	}
}

func (c *Core) issueToL1(u *uop, req Request) {
	c.outstanding++
	if j := c.jitter(c.cfg.IssueJitter); j > 0 && req.Kind.IsMem() {
		c.k.After(j, func() { c.accessL1(u, req) })
		return
	}
	c.accessL1(u, req)
}

// Tokens encode which structure an in-flight L1 access resumes into:
// odd tokens resume a window uop, even tokens a draining store-buffer
// entry. The two share a seq namespace (a store's uop and its SB entry
// carry the same seq), so the low bit keeps them unambiguous.
func windowToken(seq uint64) uint64 { return seq<<1 + 1 }
func drainToken(seq uint64) uint64  { return seq<<1 + 2 }

func (c *Core) accessL1(u *uop, req Request) {
	req.Token = windowToken(u.seq)
	c.l1.Access(req, c.respondFn)
}

// Callback returns the core's L1 completion callback: the one func the
// core passes to every tracked Access. A cloned cache hands it to its
// pending operations (see hostproto.L1.Clone), so a snapshot's
// completions reach the cloned core.
func (c *Core) Callback() func(Response) { return c.respondFn }

// respond finishes the in-flight operation named by the response's token.
// It is the single completion path for every tracked access, which is
// what lets a cloned cache rebind its pending completions to a cloned
// core: the token is data, not a closure. A token that matches nothing
// is a protocol bug.
func (c *Core) respond(r Response) {
	tok := r.Token
	if tok == 0 {
		return // untracked (prefetch)
	}
	if c.halted {
		// A killed core's window and store buffer are gone; completions
		// from accesses still in flight at the kill are dropped rather
		// than treated as protocol bugs.
		return
	}
	if tok&1 == 1 { // window op (load/RMW/sync)
		// Window seqs are consecutive: fetch appends, retire trims the head.
		seq := tok >> 1
		if len(c.window) > 0 {
			if i := seq - c.window[0].seq; i < uint64(len(c.window)) && c.window[i].seq == seq {
				u := c.window[i]
				c.outstanding--
				if c.Observe != nil {
					c.Observe(OpStats{Kind: u.in.Kind, Addr: u.in.Addr, Missed: r.Missed, Latency: r.MissLatency, Poisoned: r.Poisoned})
				}
				c.complete(u, r.Val)
				return
			}
		}
		panic(fmt.Sprintf("cpu: core %d resume token %d: no window op with seq %d", c.ID, tok, seq))
	}
	seq := (tok - 2) >> 1
	for _, s := range c.sb {
		if s.seq == seq {
			c.outstanding--
			if c.Observe != nil {
				c.Observe(OpStats{Kind: Store, Addr: s.addr, Missed: r.Missed, Latency: r.MissLatency})
			}
			c.removeSB(s)
			c.pump()
			return
		}
	}
	panic(fmt.Sprintf("cpu: core %d resume token %d: no draining store with seq %d", c.ID, tok, seq))
}

// completeLocal finishes ops that never left the core (SB retire,
// forwarded loads, local fences) after a 1-cycle pipeline delay. The
// value rides in the uop until the event fires.
func (c *Core) completeLocal(u *uop, val uint64) {
	u.val = val
	c.k.ScheduleArg(c.k.Now()+1, completeLocalEvent, u)
}

// completeLocalEvent is completeLocal's kernel callback. A core killed
// since the op was scheduled has abandoned it: it is never observed and
// never retired.
func completeLocalEvent(a any) {
	u := a.(*uop)
	c := u.core
	if c.halted {
		return
	}
	// Stores are observed when they drain from the SB, not here, to
	// avoid double counting; forwarded loads count as hits.
	if c.Observe != nil && u.in.Kind == Load {
		c.Observe(OpStats{Kind: Load, Addr: u.in.Addr})
	}
	c.complete(u, u.val)
}

func (c *Core) complete(u *uop, val uint64) {
	u.done = true
	u.val = val
	c.Retired++
	c.src.Complete(u.in, val)
	if u.in.CtrlDep {
		c.fetchOK = true
	}
	c.retire()
	c.pump()
}

// retire removes completed ops from the head of the window and recycles
// their records.
func (c *Core) retire() {
	i := 0
	for i < len(c.window) && c.window[i].done {
		i++
	}
	if i > 0 {
		c.freeU = append(c.freeU, c.window[:i]...)
		c.window = append(c.window[:0], c.window[i:]...)
	}
}

func (c *Core) drainSB() {
	draining := 0
	for _, s := range c.sb {
		if s.draining {
			draining++
		}
	}
	for _, s := range c.sb {
		if draining >= c.cfg.SBDrainWays {
			break
		}
		if s.draining {
			if c.cfg.MCM != WMO {
				break // FIFO: only the head may drain
			}
			continue
		}
		// WMO may drain any entry; but same-address entries must drain in
		// order, so skip if an older undrained/draining same-address entry
		// exists earlier in the buffer.
		if c.cfg.MCM == WMO && c.olderSameLine(s) {
			continue
		}
		s.draining = true
		draining++
		c.outstanding++
		req := Request{Kind: Store, Addr: s.addr, Val: s.val, Rel: s.rel, Token: drainToken(s.seq)}
		if j := c.jitter(c.cfg.DrainJitter); j > 0 {
			c.k.After(j, func() { c.l1.Access(req, c.respondFn) })
		} else {
			c.l1.Access(req, c.respondFn)
		}
		if c.cfg.MCM != WMO {
			break
		}
	}
}

func (c *Core) olderSameLine(s *sbEntry) bool {
	for _, o := range c.sb {
		if o == s {
			return false
		}
		if o.addr.Line() == s.addr.Line() {
			return true
		}
	}
	return false
}

func (c *Core) removeSB(e *sbEntry) {
	for i, s := range c.sb {
		if s == e {
			c.sb = append(c.sb[:i], c.sb[i+1:]...)
			c.freeSB = append(c.freeSB, e)
			return
		}
	}
}

// Clone returns a deep copy of the core for model-checker snapshots,
// attached to kernel k and instruction source src (the caller clones the
// source). The L1 port is left nil — call BindL1 once the matching cache
// clone exists; the cache completes this core's in-flight accesses
// through Callback, by token. Cores with jitter enabled cannot be cloned (the
// checker explores orderings exhaustively and never uses jitter), nor
// can cores with a pending pump event (non-quiescent).
func (c *Core) Clone(k *sim.Kernel, src Source) *Core {
	if c.rng != nil {
		panic("cpu: Clone of core with timing jitter enabled")
	}
	if c.pumpEvt {
		panic("cpu: Clone of core with a pending pump event")
	}
	if c.onFinish != nil {
		panic("cpu: Clone of core with an onFinish callback")
	}
	n := &Core{
		ID: c.ID, cfg: c.cfg, k: k, src: src,
		fetchOK: c.fetchOK, srcDone: c.srcDone, halted: c.halted,
		nextSeq: c.nextSeq, Observe: c.Observe,
		Retired: c.Retired, FinishedAt: c.FinishedAt, finished: c.finished,
		outstanding: c.outstanding,
	}
	n.respondFn = n.respond
	// Window and store-buffer records are value slabs: one allocation
	// each instead of one per uop/entry. Identity comparisons elsewhere
	// (e.g. removeSB) work on the slab pointers.
	if len(c.window) > 0 {
		us := make([]uop, len(c.window))
		n.window = make([]*uop, len(c.window))
		for i, u := range c.window {
			us[i] = *u
			us[i].core = n
			n.window[i] = &us[i]
		}
	}
	if len(c.sb) > 0 {
		ss := make([]sbEntry, len(c.sb))
		n.sb = make([]*sbEntry, len(c.sb))
		for i, e := range c.sb {
			ss[i] = *e
			n.sb[i] = &ss[i]
		}
	}
	return n
}

// BindL1 attaches the core's memory port; used when cloning, where the
// core and its cache must be created before they can reference each
// other.
func (c *Core) BindL1(l1 MemPort) { c.l1 = l1 }

// Kill halts the core immediately, modelling a host crash: all in-flight
// and unfetched work is abandoned (never observed, never retired). The
// core counts as finished so run loops waiting on completion unblock;
// L1 and local completions still in flight are dropped by halted
// guards.
func (c *Core) Kill() {
	if c.halted {
		return
	}
	c.halted = true
	c.srcDone = true
	c.fetchOK = false
	c.window = nil
	c.sb = nil
	c.outstanding = 0
	if !c.finished {
		c.finished = true
		c.FinishedAt = c.k.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
	}
}

// Halted reports whether the core was killed by a crash.
func (c *Core) Halted() bool { return c.halted }

func (c *Core) checkFinished() {
	if c.finished || !c.srcDone {
		return
	}
	if len(c.window) == 0 && len(c.sb) == 0 && c.outstanding == 0 {
		c.finished = true
		c.FinishedAt = c.k.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
	}
}
