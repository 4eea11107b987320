// Package verif is the formal-verification backend of the generator
// toolchain (Sec. VI-A): an explicit-state model checker in the style of
// the paper's Murphi methodology. It exhaustively explores the
// message-delivery interleavings of a small C3 system — the actual
// controller implementations, not an abstraction — checking at every
// reachable quiescent state:
//
//   - deadlock freedom (some action is always enabled until all cores
//     retire);
//   - the single-writer/multiple-reader invariant across all host caches
//     in all clusters;
//   - that no compound state forbidden by Rule I (e.g. (M, I), (S, I))
//     is ever reachable in any C3 instance;
//   - data-value agreement among valid copies, and at terminal states the
//     absence of litmus-forbidden outcomes.
//
// Exploration is breadth-first with state-fingerprint deduplication. A
// frontier state is kept as a copy-on-write snapshot (Model.Clone) and
// expanded by cloning it once per enabled delivery. A clone is a delta
// of its parent: it shares every ownership group — a thread's core,
// source and L1, a cluster's C3, or the home directory with DRAM — and
// a delivery copies only the group it reaches, so a successor hashes
// and copies one group plus the fabric. A state whose snapshot was
// dropped to bound memory is rebuilt by re-executing its delivery
// prefix on a fresh model: components are event-driven and
// single-threaded, so a prefix determines the state.
package verif

import (
	"fmt"
	"sort"

	"c3/internal/fp"
	"c3/internal/msg"
	"c3/internal/network"
)

// chKey identifies one ordered channel.
type chKey struct {
	src, dst msg.NodeID
	vnet     msg.VNet
}

func (k chKey) less(o chKey) bool {
	if k.src != o.src {
		return k.src < o.src
	}
	if k.dst != o.dst {
		return k.dst < o.dst
	}
	return k.vnet < o.vnet
}

// channel is one ordered FIFO. Channels live in a slice kept sorted by
// key; a drained channel keeps its slot (the set of channels a litmus
// system ever uses is tiny and stable), so Enabled walks an
// already-canonical order with no per-call sort.
type channel struct {
	key chKey
	q   []*msg.Msg
}

// ChoiceFabric is a system.Fabric whose delivery order is chosen by the
// explorer rather than by timestamps. Ordered channels expose only their
// head; traffic on a reorderable link's request and snoop vnets waits
// in one bag that exposes every message, exactly the reordering CXL's
// conflict handshake exists to survive.
type ChoiceFabric struct {
	// ports is indexed by NodeID (small and dense by construction).
	ports []network.Port
	// links maps each directed {src, dst} pair to its link's config.
	// Connect fills it at Build and it never changes afterwards, so
	// clones share it.
	links map[[2]msg.NodeID]network.LinkConfig
	chans []channel
	bag   []*msg.Msg

	Delivered uint64
}

// Register attaches a receiver.
func (f *ChoiceFabric) Register(id msg.NodeID, p network.Port) {
	for int(id) >= len(f.ports) {
		f.ports = append(f.ports, nil)
	}
	f.ports[id] = p
}

// Connect links a and b, both directions, ordered as cfg says.
func (f *ChoiceFabric) Connect(a, b msg.NodeID, cfg network.LinkConfig) {
	if f.links == nil {
		f.links = make(map[[2]msg.NodeID]network.LinkConfig)
	}
	f.links[[2]msg.NodeID{a, b}] = cfg
	f.links[[2]msg.NodeID{b, a}] = cfg
}

// findChan returns the channel for k, or nil if it does not exist.
func (f *ChoiceFabric) findChan(k chKey) *channel {
	i := sort.Search(len(f.chans), func(i int) bool { return !f.chans[i].key.less(k) })
	if i < len(f.chans) && f.chans[i].key == k {
		return &f.chans[i]
	}
	return nil
}

// Clone returns a copy of the fabric's in-flight messages for
// model-checker snapshots. Ports are NOT carried over — they reference
// the original component graph; Model.Step registers each group's
// components as it copies them, so only the groups the clone owns have
// ports. The link table is fixed at Build and shared.
//
// Messages are immutable after Send (see msg.Msg), so the *msg.Msg
// pointers are shared with the original; only the slice backings are
// private. All queue backings come from one slab, full-capacity sliced
// so a post-clone Send reallocates instead of stomping a neighbour;
// the bag gets its own backing because Deliver compacts it in place.
func (f *ChoiceFabric) Clone() *ChoiceFabric {
	n := &ChoiceFabric{
		ports:     make([]network.Port, len(f.ports)),
		links:     f.links,
		Delivered: f.Delivered,
	}
	total := 0
	for i := range f.chans {
		total += len(f.chans[i].q)
	}
	n.chans = make([]channel, len(f.chans))
	slab := make([]*msg.Msg, total)
	off := 0
	for i := range f.chans {
		c := &f.chans[i]
		end := off + len(c.q)
		nq := slab[off:end:end]
		copy(nq, c.q)
		off = end
		n.chans[i] = channel{key: c.key, q: nq}
	}
	if len(f.bag) > 0 {
		n.bag = append([]*msg.Msg(nil), f.bag...)
	}
	return n
}

// Send implements network.Fabric. m's link orders it exactly as the
// timed network does: a CrossVNetOrder link is one physical channel, so
// all its vnets share one FIFO; otherwise an Unordered link lets
// requests and snoops overtake one another (the bag) while responses
// keep a FIFO per vnet, and any other link is FIFO per vnet.
func (f *ChoiceFabric) Send(m *msg.Msg) {
	cfg, ok := f.links[[2]msg.NodeID{m.Src, m.Dst}]
	k := chKey{m.Src, m.Dst, m.VNet}
	switch {
	case !ok:
		panic(fmt.Sprintf("verif: no link for %v", m))
	case cfg.CrossVNetOrder:
		k.vnet = 0
	case cfg.Unordered && m.VNet != msg.VRsp:
		f.bag = append(f.bag, m)
		return
	}
	if c := f.findChan(k); c != nil {
		c.q = append(c.q, m)
		return
	}
	i := sort.Search(len(f.chans), func(i int) bool { return !f.chans[i].key.less(k) })
	f.chans = append(f.chans, channel{})
	copy(f.chans[i+1:], f.chans[i:])
	f.chans[i] = channel{key: k, q: []*msg.Msg{m}}
}

// Action identifies one deliverable message.
type Action struct {
	// FromBag selects bag[Index]; otherwise the head of Channel.
	FromBag bool
	Index   int
	Channel chKey
}

// Enabled lists deliverable actions in a canonical order (deterministic
// across re-executions of the same prefix).
func (f *ChoiceFabric) Enabled() []Action {
	nch := 0
	for i := range f.chans {
		if len(f.chans[i].q) > 0 {
			nch++
		}
	}
	acts := make([]Action, 0, nch+len(f.bag))
	for i := range f.chans {
		if len(f.chans[i].q) > 0 {
			acts = append(acts, Action{Channel: f.chans[i].key})
		}
	}
	for i := range f.bag {
		acts = append(acts, Action{FromBag: true, Index: i})
	}
	return acts
}

// Peek returns the message action a would deliver, without delivering
// it (witness decoding and minimization).
func (f *ChoiceFabric) Peek(a Action) *msg.Msg {
	if a.FromBag {
		return f.bag[a.Index]
	}
	return f.findChan(a.Channel).q[0]
}

// delivery names the delivery action a makes so that a later state can
// find it again, and returns the node it delivers to. A FIFO head is
// named by its channel key: deliveries to other nodes only append to
// the channel, so its head stays the same message. A bag entry is named
// by its message's hash under id, the identity renaming: equal messages
// deliver to equal states. Bag names set the top bit, which channel
// names (node ids are small) never do.
func (f *ChoiceFabric) delivery(a Action, id fp.Renamer) (name uint64, dst msg.NodeID) {
	if !a.FromBag {
		k := a.Channel
		return uint64(k.src)<<32 | uint64(k.dst)<<8 | uint64(k.vnet), k.dst
	}
	m := f.bag[a.Index]
	return msgHash(m, id) | 1<<63, m.Dst
}

// msgHash hashes every protocol-visible field of m under id, the
// identity renaming. Witness minimization matches delivery choices
// across different prefixes by it (indices shift when steps are
// dropped; the message does not).
func msgHash(m *msg.Msg, id fp.Renamer) uint64 {
	h := fp.New()
	fingerprintMsg(&h, m, id)
	return h.Sum()
}

// Deliver executes one action.
func (f *ChoiceFabric) Deliver(a Action) {
	var m *msg.Msg
	if a.FromBag {
		m = f.bag[a.Index]
		f.bag = append(f.bag[:a.Index], f.bag[a.Index+1:]...)
	} else {
		c := f.findChan(a.Channel)
		m = c.q[0]
		c.q = c.q[1:]
	}
	f.Delivered++
	p := f.ports[m.Dst]
	if p == nil {
		// Model.Step registers the destination's group before delivering;
		// a clone's fabric has no port for a group it still shares.
		panic(fmt.Sprintf("verif: delivery of %v to node %d, which has no port on this fabric", m, m.Dst))
	}
	p.Recv(m)
}

// Empty reports whether nothing is in flight.
func (f *ChoiceFabric) Empty() bool {
	if len(f.bag) > 0 {
		return false
	}
	for i := range f.chans {
		if len(f.chans[i].q) > 0 {
			return false
		}
	}
	return true
}

// Fingerprint writes the in-flight messages into the model checker's
// state hash, with line addresses and node ids renamed by rn. Drained
// channels are left out. The non-empty channels hash as a bag keyed by
// their renamed endpoints, each queue in FIFO order, and the reorderable
// bag hashes as a bag of messages.
func (f *ChoiceFabric) Fingerprint(h *fp.Hasher, rn fp.Renamer) {
	var chans fp.Bag
	for i := range f.chans {
		c := &f.chans[i]
		if len(c.q) == 0 {
			continue
		}
		e := fp.New()
		e.Node(c.key.src, rn)
		e.Node(c.key.dst, rn)
		e.Int(int(c.key.vnet))
		e.Int(len(c.q))
		for _, m := range c.q {
			fingerprintMsg(&e, m, rn)
		}
		chans.Add(e)
	}
	h.Bag(chans)
	var bag fp.Bag
	for _, m := range f.bag {
		e := fp.New()
		fingerprintMsg(&e, m, rn)
		bag.Add(e)
	}
	h.Bag(bag)
}

// ForEachInFlight visits every in-flight message (channel entries and
// bag). The partial-order reduction uses it to count per-line traffic.
func (f *ChoiceFabric) ForEachInFlight(fn func(m *msg.Msg)) {
	for i := range f.chans {
		for _, m := range f.chans[i].q {
			fn(m)
		}
	}
	for _, m := range f.bag {
		fn(m)
	}
}

// fingerprintMsg writes every protocol-visible field of m under rn.
// Serial and Seq are transport bookkeeping and stay out.
func fingerprintMsg(h *fp.Hasher, m *msg.Msg, rn fp.Renamer) {
	h.Int(int(m.Type))
	h.Line(m.Addr, rn)
	h.Node(m.Src, rn)
	h.Node(m.Dst, rn)
	h.Int(int(m.VNet))
	h.Bool(m.Data != nil)
	if m.Data != nil {
		h.Data(m.Data)
		h.Bool(m.Dirty)
	}
	h.Node(m.Req, rn)
	h.Int(m.Acks)
	h.Word(m.Val)
	h.Int(m.Word)
	h.Int(int(m.Mask))
	h.Bool(m.Acq)
	h.Bool(m.Rel)
	h.Bool(m.Poisoned)
}
