// Package network models the two interconnect tiers of the simulated
// system (Table III of the paper):
//
//   - intra-cluster: point-to-point topology, 72 B flits, 1-cycle router,
//     10-cycle links;
//   - cross-cluster (the CXL fabric): star topology, 256 B flits, 1-cycle
//     router, 70 ns links.
//
// Each directed (src, dst, vnet) pair is an independent link with
// serialization (flit) delay and propagation latency. Response virtual
// networks are always FIFO — the CXL property that makes the
// BIConflict/BIConflictAck handshake meaningful — while request and snoop
// networks on the global fabric may reorder via seeded random jitter,
// modelling CXL's switched, unordered message delivery.
//
// The fabric is perfect by default. EnableFaults arms a deterministic
// fault injector (internal/faults) on the cross-cluster links and layers
// a reliable-delivery shim (reliable.go) over them: sequence numbers,
// ack/timeout retransmission with capped exponential backoff, receiver
// dedup/reorder, and poison-on-retry-exhaustion. The no-fault hot path
// stays allocation-free: every fault hook is a nil check on fields that
// are only populated when a plan is armed (pinned by
// BenchmarkNetworkSend and the CI alloc gate).
package network

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"c3/internal/faults"
	"c3/internal/msg"
	"c3/internal/sim"
	"c3/internal/trace"
)

// Port receives delivered messages.
type Port interface {
	Recv(m *msg.Msg)
}

// Fabric is the send-side interface controllers depend on. The timed
// Network implements it; the model checker substitutes its own.
type Fabric interface {
	Send(m *msg.Msg)
}

// LinkConfig describes one directed link.
type LinkConfig struct {
	// Latency is the propagation delay (cycles).
	Latency sim.Time
	// FlitBytes sets serialization granularity: a message occupies the
	// sender for ceil(size/FlitBytes) cycles.
	FlitBytes int
	// RouterCycles is added per traversal (1 in Table III).
	RouterCycles sim.Time
	// Unordered permits reordering on VReq/VSnp via jitter in
	// [0, JitterMax]. VRsp links are always ordered regardless.
	Unordered bool
	JitterMax sim.Time
	// CrossVNetOrder enforces point-to-point ordering across all three
	// virtual networks of a directed pair (a single physical on-chip
	// channel). Intra-cluster links use it so a directory grant can
	// never be overtaken by a later snoop; the CXL fabric must not (the
	// Fig. 2 races require snoops to reorder with completions).
	CrossVNetOrder bool
	// Cross marks the link as part of the cross-cluster CXL fabric: the
	// tier the fault injector targets and the reliable shim protects.
	Cross bool
}

// IntraCluster returns the Table III point-to-point link configuration.
func IntraCluster() LinkConfig {
	return LinkConfig{Latency: 10, FlitBytes: 72, RouterCycles: 1, CrossVNetOrder: true}
}

// CrossCluster returns the Table III CXL star-topology configuration.
// The 70 ns link latency was calibrated by the paper to yield ~400 ns
// round-trip CXL memory access. Jitter models fabric reordering.
func CrossCluster() LinkConfig {
	return LinkConfig{Latency: sim.NS(70), FlitBytes: 256, RouterCycles: 1,
		Unordered: true, JitterMax: 24, Cross: true}
}

// link is one directed (src, dst, vnet) channel.
type link struct {
	src, dst msg.NodeID
	vnet     msg.VNet
	ordered  bool
	// down marks a link whose endpoint node crashed: nothing departs,
	// nothing in flight arrives (the surprise-link-down model — flits on
	// the wire are lost, not parked).
	down bool
	// cfg is shared by every link of the Connect that made this one.
	cfg           *LinkConfig
	lastDeparture sim.Time
	lastArrival   sim.Time
	// jitter, when non-nil, is this link's private reordering stream
	// (unordered links only). Per-link streams keep one link's traffic
	// from perturbing another's schedule and survive link additions.
	jitter *rand.Rand
	// pair, when non-nil, carries the shared arrival horizon for
	// cross-vnet-ordered links.
	pair *pairOrder
	// rev is the same vnet in the opposite direction: the shim's acks
	// for this link travel on it.
	rev *link
	// faults is this link's fault stream, taken from the injector at the
	// link's first fault decision (payload or ack); nil until then.
	faults *faults.Stream
	// rel, when non-nil, is the reliable-delivery shim state: armed on
	// Cross links once EnableFaults has installed an injector.
	rel *relState
}

type pairOrder struct {
	lastArrival sim.Time
}

// linkBlock is what one Connect allocates: both directions' links for
// every vnet, their config, and each direction's cross-vnet arrival
// horizon.
type linkBlock struct {
	links [2][msg.NumVNets]link
	cfg   LinkConfig
	order [2]pairOrder
}

// pcgRand is a rand.Rand over its own PCG source, in one allocation.
// Connect allocates a pair's six together.
type pcgRand struct {
	pcg rand.PCG
	rand.Rand
}

// seed starts r's stream as rand.New(rand.NewPCG(seed1, seed2)) would.
func (r *pcgRand) seed(seed1, seed2 uint64) *rand.Rand {
	r.pcg.Seed(seed1, seed2)
	r.Rand = *rand.New(&r.pcg)
	return &r.Rand
}

// node is one endpoint's row of the fabric tables.
type node struct {
	port Port
	// out holds, per destination id, the links of the directed pair
	// (this node, destination), one per vnet; nil where none exist.
	out []*[msg.NumVNets]link
	// down is set by MarkNodeDown the moment the node dies; declared once
	// its death escalates to a structured peer-dead declaration (retry
	// escalation or the declare-delay backstop, whichever first).
	down, declared bool
}

// Stats aggregates traffic counters.
type Stats struct {
	Msgs  [msg.NumVNets]uint64
	Bytes [msg.NumVNets]uint64
}

// Network is the timed fabric. Its tables are indexed by node id:
// system.New numbers nodes densely from 1, so a route lookup is a few
// bounds checks and no hashing, and one slice lists every link for the
// walks that touch them all (arming faults, crash and rejoin, peer-dead
// declaration, pending retries, Validate).
type Network struct {
	k      *sim.Kernel
	seed   int64
	nodes  []node
	links  []*link
	serial uint64

	// inj, when non-nil, is the armed fault injector (EnableFaults).
	// Every fault-path branch guards on it, so a perfect fabric pays one
	// predictable nil check per send and per delivery.
	inj *faults.Injector

	// downs counts nodes currently down, so the healthy fabric's
	// delivery path pays one compare for the crash model.
	downs int

	// OnPeerDead, when non-nil, receives each peer-dead declaration
	// exactly once. The system layer wires it to the coherence-state
	// reclamation walk (DCOH / H-MESI directory host isolation).
	OnPeerDead func(id msg.NodeID)

	// Trace, when non-nil, observes every message at send (false) and
	// delivery (true). Retained for lightweight ad-hoc hooks (the litmus
	// runner's text trace); structured consumers use Tracer.
	Trace func(m *msg.Msg, delivered bool)

	// Tracer, when non-nil, receives protocol trace events for every
	// send and delivery. nil means tracing is off and costs one branch.
	Tracer *trace.Tracer

	Stats Stats

	// deliverFn, retryFn and ackFn are the long-lived callbacks every
	// delivery, shim retry and shim ack is scheduled with (ScheduleArg),
	// so neither the hot path nor the shim allocates a closure per
	// message; txs and acks recycle the shim events' payloads.
	deliverFn, retryFn, ackFn func(any)
	txs                       freeList[pendingTx]
	acks                      freeList[ackTx]
}

// tableNodes sizes a new network's node table: ids 0..15 cover a
// two-cluster machine of up to six cores per cluster without growing
// it, and each node's row of destinations is allocated at the table's
// capacity. Larger machines grow the table as they register.
const tableNodes = 16

// New returns an empty network on kernel k. Jitter on unordered links is
// drawn from per-link generators derived from seed, so runs are
// reproducible and links are independent.
func New(k *sim.Kernel, seed int64) *Network {
	n := &Network{
		k: k, seed: seed,
		nodes: make([]node, 0, tableNodes),
		// One Connect per node covers the cluster trees.
		links: make([]*link, 0, tableNodes*2*msg.NumVNets),
	}
	n.deliverFn = n.deliver
	n.retryFn = n.retryEvent
	n.ackFn = n.ackArrive
	return n
}

// EnableFaults arms the fault injector for plan p and attaches the
// reliable-delivery shim to every Cross link (already-connected and
// future ones). A plan with no active rates is a no-op: the fabric stays
// perfect and the hot path keeps its nil checks.
func (n *Network) EnableFaults(p faults.Plan) {
	if !p.Enabled() {
		return
	}
	n.inj = faults.NewInjector(p)
	for _, l := range n.links {
		l.faults = nil // streams come from the new injector
		if l.cfg.Cross && l.rel == nil {
			l.rel = &relState{}
		}
	}
}

// Injector returns the armed fault injector, or nil on a perfect fabric.
func (n *Network) Injector() *faults.Injector { return n.inj }

// grow extends the node table to hold id, which must not be negative.
func (n *Network) grow(id msg.NodeID) {
	if id < 0 {
		panic(fmt.Sprintf("network: negative node id %d", id))
	}
	if int(id) >= len(n.nodes) {
		n.nodes = append(n.nodes, make([]node, int(id)+1-len(n.nodes))...)
	}
}

// pair returns the links of the directed pair (src, dst), or nil.
func (n *Network) pair(src, dst msg.NodeID) *[msg.NumVNets]link {
	if uint(src) < uint(len(n.nodes)) {
		if out := n.nodes[src].out; uint(dst) < uint(len(out)) {
			return out[dst]
		}
	}
	return nil
}

// port returns id's registered port, or nil.
func (n *Network) port(id msg.NodeID) Port {
	if uint(id) < uint(len(n.nodes)) {
		return n.nodes[id].port
	}
	return nil
}

// Register attaches the receiver for node id.
func (n *Network) Register(id msg.NodeID, p Port) {
	n.grow(id)
	if n.nodes[id].port != nil {
		panic(fmt.Sprintf("network: duplicate port %d", id))
	}
	n.nodes[id].port = p
}

// linkStream derives the per-link RNG stream id (splitmix64 finalizer,
// so adjacent node ids land in unrelated streams).
func linkStream(src, dst msg.NodeID, vnet msg.VNet) uint64 {
	x := uint64(int64(src))<<24 ^ uint64(int64(dst))<<8 ^ uint64(vnet)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Connect creates the three virtual-network links in both directions
// between a and b, allocated as one block; a pair whose links reorder
// gets one more for their jitter streams, and one whose links carry the
// reliable shim one more for its state. VRsp is always ordered;
// VReq/VSnp follow cfg.Unordered. Connecting the same pair twice is a
// wiring bug and panics (mirroring Register), rather than silently
// resetting the links' FIFO horizons.
func (n *Network) Connect(a, b msg.NodeID, cfg LinkConfig) {
	n.grow(a)
	n.grow(b)
	for _, p := range [2][2]msg.NodeID{{a, b}, {b, a}} {
		if a == b || n.pair(p[0], p[1]) != nil {
			panic(fmt.Sprintf("network: duplicate link %d->%d", p[0], p[1]))
		}
	}
	blk := &linkBlock{cfg: cfg}
	var jitters *[2][msg.NumVNets]pcgRand
	if cfg.Unordered && cfg.JitterMax > 0 {
		jitters = new([2][msg.NumVNets]pcgRand)
	}
	var rels *[2][msg.NumVNets]relState
	if n.inj != nil && cfg.Cross {
		rels = new([2][msg.NumVNets]relState)
	}
	for d, p := range [2][2]msg.NodeID{{a, b}, {b, a}} {
		for v := msg.VNet(0); v < msg.NumVNets; v++ {
			l := &blk.links[d][v]
			*l = link{
				src: p[0], dst: p[1], vnet: v,
				ordered: !cfg.Unordered || v == msg.VRsp,
				cfg:     &blk.cfg,
				rev:     &blk.links[1-d][v],
			}
			if cfg.CrossVNetOrder {
				l.pair = &blk.order[d]
			}
			if jitters != nil && !l.ordered {
				l.jitter = jitters[d][v].seed(uint64(n.seed), linkStream(p[0], p[1], v))
			}
			if rels != nil {
				l.rel = &rels[d][v]
			}
			n.links = append(n.links, l)
		}
		src := &n.nodes[p[0]]
		if int(p[1]) >= len(src.out) {
			row := make([]*[msg.NumVNets]link, max(int(p[1])+1, cap(n.nodes)))
			copy(row, src.out)
			src.out = row
		}
		src.out[p[1]] = &blk.links[d]
	}
}

// Validate checks that every connected link endpoint has a registered
// port. system.New calls it after wiring, so a misconfigured topology
// fails at build time with a list of the unregistered nodes instead of
// panicking mid-run in Send.
func (n *Network) Validate() error {
	var missing []msg.NodeID
	for _, l := range n.links {
		for _, id := range [2]msg.NodeID{l.src, l.dst} {
			if n.port(id) == nil && !slices.Contains(missing, id) {
				missing = append(missing, id)
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	slices.Sort(missing)
	return fmt.Errorf("network: links reference unregistered ports %v", missing)
}

func (n *Network) route(m *msg.Msg) *link {
	if p := n.pair(m.Src, m.Dst); p != nil && m.VNet < msg.NumVNets {
		return &p[m.VNet]
	}
	panic(fmt.Sprintf("network: no route for %v", m))
}

// faultStream returns l's fault stream, taking it from the injector at
// the link's first decision.
func (n *Network) faultStream(l *link) *faults.Stream {
	if l.faults == nil {
		l.faults = n.inj.Stream(l.src, l.dst, l.vnet)
	}
	return l.faults
}

// Send queues m for delivery. The message must not be mutated afterwards
// by the sender (the network itself stamps shim metadata on faulty
// links). Port registration is checked by Validate at build time, not
// here on the hot path.
func (n *Network) Send(m *msg.Msg) {
	l := n.route(m)
	if l.down {
		// A crashed endpoint: the send is lost without shim bookkeeping
		// or trace events (a traced send on a dead link would open a
		// watchdog transaction that can never close).
		return
	}
	n.serial++
	m.Serial = n.serial
	n.Stats.Msgs[m.VNet]++
	n.Stats.Bytes[m.VNet] += uint64(m.Size())
	if n.Trace != nil {
		n.Trace(m, false)
	}
	if n.Tracer != nil {
		n.Tracer.MsgSend(n.k.Now(), m)
	}
	if l.rel != nil {
		n.relSend(l, m)
		return
	}
	n.transmit(l, m)
}

// transmit pushes one copy of m through l: sender occupancy, propagation,
// jitter and ordering clamps, and — on shim-protected links — the
// injector's fate for this traversal. Retransmissions come back through
// here and roll a fresh fate.
func (n *Network) transmit(l *link, m *msg.Msg) {
	flits := sim.Time((m.Size() + l.cfg.FlitBytes - 1) / l.cfg.FlitBytes)
	depart := n.k.Now()
	if l.lastDeparture > depart {
		depart = l.lastDeparture
	}
	depart += flits
	l.lastDeparture = depart

	var fate faults.Fate
	if l.rel != nil {
		fate = n.inj.Decide(n.faultStream(l), depart, false)
		if fate.Drop {
			// Lost in flight. The flit still occupied the sender (the
			// departure horizon advanced above); recovery is the retry
			// timer's job.
			return
		}
	}

	arrive := depart + l.cfg.Latency + l.cfg.RouterCycles
	if l.ordered {
		if arrive < l.lastArrival {
			arrive = l.lastArrival
		}
		l.lastArrival = arrive
	} else if l.jitter != nil {
		arrive += sim.Time(l.jitter.Uint64N(uint64(l.cfg.JitterMax) + 1))
	}
	if l.pair != nil {
		// Single physical channel: later sends on any vnet of this
		// directed pair may not arrive before earlier ones.
		if arrive < l.pair.lastArrival {
			arrive = l.pair.lastArrival
		}
		l.pair.lastArrival = arrive
	}
	arrive += fate.Delay

	// Delivery is not terminal for the message itself — receivers queue
	// *Msg behind busy lines (DCOH convoys, directory pipelining), so the
	// Msg cannot be pooled here. What can be recycled is the scheduling
	// bookkeeping: the kernel event comes from the kernel's freelist and
	// the callback is the network's one shared deliverFn, so a send
	// allocates nothing in steady state.
	n.k.ScheduleArg(arrive, n.deliverFn, m)
	if fate.Dup {
		// The duplicate trails by one flit, the shape a replayed
		// link-layer retry takes; the receiver's dedup suppresses it.
		n.k.ScheduleArg(arrive+flits+1, n.deliverFn, m)
	}
}

// deliver completes one in-flight traversal (the ScheduleArg callback).
// On shim-protected links the arrival first passes dedup/reorder/ack.
func (n *Network) deliver(a any) {
	m := a.(*msg.Msg)
	if n.downs > 0 && (n.nodes[m.Src].down || n.nodes[m.Dst].down) {
		// The link went down while this message was in flight: the flit
		// dies on the wire (surprise link-down loses, it does not park).
		return
	}
	if n.inj != nil {
		if l := n.route(m); l.rel != nil {
			n.relArrive(l, m)
			return
		}
	}
	n.deliverNow(m)
}

// deliverNow hands m to its destination port (the single point every
// accepted message funnels through, faulty or not).
func (n *Network) deliverNow(m *msg.Msg) {
	if n.Trace != nil {
		n.Trace(m, true)
	}
	if n.Tracer != nil {
		n.Tracer.MsgDeliver(n.k.Now(), m)
	}
	n.nodes[m.Dst].port.Recv(m)
}

// DefaultDeclareDelay is the backstop between a node going down and its
// peer-dead declaration when no in-flight retry escalates it first:
// roughly two cross-link round trips — long enough that a message sent
// at the instant of the crash has demonstrably died, short enough to
// stay far inside the watchdog's silence threshold.
const DefaultDeclareDelay = sim.Time(600)

// MarkNodeDown takes every link touching id permanently down: messages
// in flight are lost, the dead node's own retransmission window is
// discarded, and receivers drop reorder-buffer entries that can never
// have their gaps filled. If id is a cross-fabric endpoint, a peer-dead
// declaration is scheduled after DefaultDeclareDelay as a backstop; a
// surviving sender's retry usually escalates sooner.
func (n *Network) MarkNodeDown(id msg.NodeID) {
	n.grow(id)
	if n.nodes[id].down {
		return
	}
	n.nodes[id].down = true
	n.downs++
	cross := false
	for _, l := range n.links {
		if l.src != id && l.dst != id {
			continue
		}
		l.down = true
		if l.cfg.Cross {
			cross = true
		}
		if l.rel != nil && l.src == id {
			// The dead node will never retransmit: cancel its timers so
			// the event queue drains, and drop parked arrivals whose
			// sequence gaps can now never fill.
			n.retire(l.rel)
			clear(l.rel.buf)
		}
	}
	if cross {
		n.k.After(DefaultDeclareDelay, func() { n.declarePeerDead(id) })
	}
}

// MarkNodeUp brings a previously downed node's links back up (a crash
// rejoin window). Shim state restarts from scratch on both directions —
// the rejoined endpoint is a cold link partner, not a resumed one.
func (n *Network) MarkNodeUp(id msg.NodeID) {
	if !n.NodeDown(id) {
		return
	}
	n.nodes[id].down, n.nodes[id].declared = false, false
	n.downs--
	for _, l := range n.links {
		if l.src != id && l.dst != id {
			continue
		}
		if n.nodes[l.src].down || n.nodes[l.dst].down {
			continue // the other endpoint is still dead
		}
		l.down = false
		if l.rel != nil {
			*l.rel = relState{}
		}
	}
}

// declarePeerDead escalates a downed node to a structured peer-dead
// declaration: all retransmission state addressed to it is retired
// without per-message poison, and OnPeerDead runs the protocol-level
// reclamation. Idempotent — retry escalation and the backstop timer
// race benignly.
func (n *Network) declarePeerDead(id msg.NodeID) {
	if n.nodes[id].declared {
		return
	}
	n.nodes[id].declared = true
	for _, l := range n.links {
		if l.rel != nil && l.dst == id {
			n.retire(l.rel)
		}
	}
	if n.OnPeerDead != nil {
		n.OnPeerDead(id)
	}
}

// NodeDown reports whether id has been marked down.
func (n *Network) NodeDown(id msg.NodeID) bool {
	return uint(id) < uint(len(n.nodes)) && n.nodes[id].down
}

// DeadPeers returns the nodes declared dead, sorted — the watchdog's
// "dead-host" classification input.
func (n *Network) DeadPeers() []msg.NodeID {
	var out []msg.NodeID
	for id := range n.nodes {
		if n.nodes[id].declared {
			out = append(out, msg.NodeID(id))
		}
	}
	return out
}

// TotalMsgs reports messages sent across all virtual networks.
func (s *Stats) TotalMsgs() uint64 {
	var t uint64
	for _, v := range s.Msgs {
		t += v
	}
	return t
}

// TotalBytes reports bytes sent across all virtual networks.
func (s *Stats) TotalBytes() uint64 {
	var t uint64
	for _, v := range s.Bytes {
		t += v
	}
	return t
}
