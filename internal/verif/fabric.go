// Package verif is the formal-verification backend of the generator
// toolchain (Sec. VI-A): an explicit-state model checker in the style of
// the paper's Murphi methodology. It exhaustively explores the
// message-delivery interleavings of a small C3 system — the actual
// controller implementations, not an abstraction — and checks, at the
// reachable quiescent states:
//
//   - on every new state, the single-writer/multiple-reader invariant
//     across all host caches in all clusters, and that no compound state
//     forbidden by Rule I (e.g. (M, I), (S, I)) is reached in any C3
//     instance on a line with no transaction in flight;
//   - at a dead end (no delivery enabled), deadlock freedom: every core
//     has retired its program;
//   - at terminal states (every core retired, no message in flight),
//     that each line has at most one exclusive host owner, no C3
//     transaction still open and shared copies that agree, and that no
//     litmus-forbidden outcome is reached.
//
// Data values are compared only at terminals, and only shared copies
// against each other. Inclusion is checked only as Rule I's compound
// states, which keep each C3's local class within its global class;
// nothing checks that a host copy is recorded by its C3.
//
// Exploration is breadth-first with state-fingerprint deduplication. A
// frontier state is kept as a copy-on-write snapshot (Model.Clone) and
// expanded by cloning it once per enabled delivery but the last, which
// steps the frontier state itself. A clone is a delta of its parent: it
// shares every ownership group — a thread's core, source and L1, a
// cluster's C3, or the home directory with DRAM — and the in-flight
// messages, and a delivery copies only the group it reaches and what it
// writes of the fabric, so a successor hashes, copies and re-checks no
// more than its delivery changed. A state whose snapshot was dropped to
// bound memory is rebuilt by re-executing its delivery prefix, which its
// trail of parent links gives, on a fresh model: components are
// event-driven and single-threaded, so a prefix determines the state.
package verif

import (
	"fmt"
	"slices"
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

// channel is one non-empty ordered FIFO. The fabric keeps its channels
// in a slice sorted by key, inserting one with the send that fills it
// and removing it with the delivery that drains it, so Enabled walks an
// already-canonical order with no per-call sort.
//
// hash caches the channel's entry hash (see fingerprint) under
// renamings 0 — the identity and the only renaming of an asymmetric
// test — and 1, and rest those under renamings 2 and up; a zero Hasher
// is not cached. A send or delivery on the channel drops them all.
// Keeping renaming 1 inline spares a test with one symmetric pair an
// allocation per channel a step touches.
type channel struct {
	key  chKey
	q    []*msg.Msg
	hash [2]fp.Hasher
	rest []fp.Hasher
}

// ChoiceFabric is a system.Fabric whose delivery order is chosen by the
// explorer rather than by timestamps. Ordered channels expose only their
// head; traffic on a reorderable link's request and snoop vnets waits
// in one bag that exposes every message, exactly the reordering CXL's
// conflict handshake exists to survive.
//
// A clone shares everything with the fabric it was cloned from (see
// Clone) and copies a backing only when it writes it, so a checker
// successor allocates only what its delivery changes.
type ChoiceFabric struct {
	// links maps each directed {src, dst} pair to its link's config.
	// Connect fills it at Build and it never changes afterwards, so
	// clones share it.
	links map[[2]msg.NodeID]network.LinkConfig
	chans []channel
	bag   []*msg.Msg
	// sharedChans marks chans as shared with a clone or with the fabric
	// it was cloned from: every queue in it is clipped to full capacity,
	// and the first write copies the array.
	sharedChans bool

	// The bag's hash is kept under every renaming of sym, nil until the
	// first fingerprint: bagHash under renamings 0 and 1 and bagRest
	// under the others, which Send and take keep current message by
	// message. bagRest is shared with clones while sharedRest is set.
	sym        *symmetry
	bagHash    [2]fp.Bag
	bagRest    []fp.Bag
	sharedRest bool
}

// Register implements system.Fabric. The fabric keeps no port table:
// Model.Step hands each message to the receiver of the group it has
// just made its own (see group.recv).
func (f *ChoiceFabric) Register(msg.NodeID, network.Port) {}

// Connect links a and b, both directions, ordered as cfg says.
func (f *ChoiceFabric) Connect(a, b msg.NodeID, cfg network.LinkConfig) {
	if f.links == nil {
		f.links = make(map[[2]msg.NodeID]network.LinkConfig)
	}
	f.links[[2]msg.NodeID{a, b}] = cfg
	f.links[[2]msg.NodeID{b, a}] = cfg
}

// search returns the index of channel k, or where to insert it.
func (f *ChoiceFabric) search(k chKey) (int, bool) {
	i := sort.Search(len(f.chans), func(i int) bool { return !f.chans[i].key.less(k) })
	return i, i < len(f.chans) && f.chans[i].key == k
}

// Clone returns a copy of the fabric's in-flight messages for
// model-checker snapshots. It allocates nothing: the copy shares the
// channel array, every queue backing, the bag and the bag's kept hashes
// with f, and each side copies what it writes. So that an append on
// either side reallocates instead of writing a slot the other still
// reads, both sides' queues and bags are clipped to full capacity, and
// a bag delivery leaves the backing it took from as it was (see take).
// Messages are immutable after Send (see msg.Msg), so *msg.Msg
// pointers are shared freely. The link table is fixed at Build and
// shared.
func (f *ChoiceFabric) Clone() ChoiceFabric {
	if !f.sharedChans {
		for i := range f.chans {
			c := &f.chans[i]
			c.q = c.q[:len(c.q):len(c.q)]
		}
		f.sharedChans = true
	}
	f.bag = f.bag[:len(f.bag):len(f.bag)]
	f.sharedRest = true
	return *f
}

// ownChans makes chans the fabric's own before a write, copying a
// shared array with room for the one channel a send may insert. The
// copied queues stay clipped, so they still reallocate on append.
func (f *ChoiceFabric) ownChans() {
	if f.sharedChans {
		f.chans = append(make([]channel, 0, len(f.chans)+1), f.chans...)
		f.sharedChans = false
	}
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
		f.rehashBag(m, true)
		return
	}
	f.ownChans()
	i, found := f.search(k)
	if !found {
		f.chans = slices.Insert(f.chans, i, channel{key: k, q: []*msg.Msg{m}})
		return
	}
	c := &f.chans[i]
	c.q = append(c.q, m)
	c.dropHashes()
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
	return f.appendEnabled(make([]Action, 0, len(f.chans)+len(f.bag)))
}

// appendEnabled appends the deliverable actions to acts in Enabled's
// order: each channel's head in key order, then every bag entry.
func (f *ChoiceFabric) appendEnabled(acts []Action) []Action {
	for i := range f.chans {
		acts = append(acts, Action{Channel: f.chans[i].key})
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
	i, _ := f.search(a.Channel)
	return f.chans[i].q[0]
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
	e := msgEntry(m, id)
	return e.Sum()
}

// take removes the message a delivers from the fabric and returns it.
// It writes nothing the fabric may share: a FIFO pop copies a shared
// channel array first, and a bag entry taken from the middle leaves the
// others in a fresh backing instead of compacting the old one in place.
func (f *ChoiceFabric) take(a Action) *msg.Msg {
	if a.FromBag {
		i := a.Index
		m := f.bag[i]
		switch i {
		case 0:
			f.bag = f.bag[1:]
		case len(f.bag) - 1:
			f.bag = f.bag[:i:i]
		default:
			f.bag = append(append(make([]*msg.Msg, 0, len(f.bag)-1), f.bag[:i]...), f.bag[i+1:]...)
		}
		f.rehashBag(m, false)
		return m
	}
	f.ownChans()
	i, _ := f.search(a.Channel)
	c := &f.chans[i]
	m := c.q[0]
	if len(c.q) == 1 {
		f.chans = slices.Delete(f.chans, i, i+1)
		return m
	}
	c.q = c.q[1:]
	c.dropHashes()
	return m
}

// fingerprint writes the in-flight messages into the model checker's
// state hash under renaming s.perms[pi]. The channels hash as a bag of
// entries keyed by their renamed endpoints, each queue in FIFO order,
// and the reorderable bag hashes as a bag of messages. Both are kept
// incrementally — each channel caches its entry, and the bag's hash is
// kept current message by message — so a successor re-hashes only the
// channels and bag entries its delivery changed; the values are those
// of hashing every message afresh. An index names one renaming in every
// symmetry a configuration gets (see group.hash), so the caches serve
// any of them.
func (f *ChoiceFabric) fingerprint(h *fp.Hasher, s *symmetry, pi int) {
	var chans fp.Bag
	for i := range f.chans {
		chans.Add(f.chans[i].entry(s, pi))
	}
	h.Bag(chans)
	if f.sym == nil || len(f.sym.perms) < len(s.perms) {
		f.hashBag(s)
	}
	h.Bag(*f.bagAt(pi))
}

// bagAt returns the bag's kept hash under renaming pi.
func (f *ChoiceFabric) bagAt(pi int) *fp.Bag {
	if pi < len(f.bagHash) {
		return &f.bagHash[pi]
	}
	return &f.bagRest[pi-len(f.bagHash)]
}

// entry returns the channel's entry hash under renaming s.perms[pi],
// from its cache when it can. Filling the cache may write a channel
// array or cache backing shared with clones, but only with the value
// each of them would compute: they hold the same messages.
func (c *channel) entry(s *symmetry, pi int) fp.Hasher {
	var slot *fp.Hasher
	if pi < len(c.hash) {
		slot = &c.hash[pi]
	} else {
		if n := len(s.perms) - len(c.hash); len(c.rest) < n {
			c.rest = make([]fp.Hasher, n)
		}
		slot = &c.rest[pi-len(c.hash)]
	}
	if *slot == (fp.Hasher{}) {
		*slot = chanEntry(c, &s.perms[pi])
	}
	return *slot
}

// dropHashes forgets the channel's cached entry hashes.
func (c *channel) dropHashes() {
	c.hash, c.rest = [2]fp.Hasher{}, nil
}

// chanEntry hashes channel c under rn: its renamed endpoints, vnet and
// length, then its messages in FIFO order.
func chanEntry(c *channel, rn fp.Renamer) fp.Hasher {
	e := fp.New()
	e.Node(c.key.src, rn)
	e.Node(c.key.dst, rn)
	e.Int(int(c.key.vnet))
	e.Int(len(c.q))
	for _, m := range c.q {
		fingerprintMsg(&e, m, rn)
	}
	return e
}

// msgEntry hashes one message under rn, as the bag's entry for it.
func msgEntry(m *msg.Msg, rn fp.Renamer) fp.Hasher {
	e := fp.New()
	fingerprintMsg(&e, m, rn)
	return e
}

// hashBag hashes the whole bag under every renaming of s, which Send
// and take then keep current.
func (f *ChoiceFabric) hashBag(s *symmetry) {
	f.sym, f.bagHash, f.bagRest, f.sharedRest = s, [2]fp.Bag{}, nil, false
	if n := len(s.perms) - len(f.bagHash); n > 0 {
		f.bagRest = make([]fp.Bag, n)
	}
	for _, m := range f.bag {
		for pi := range s.perms {
			f.bagAt(pi).Add(msgEntry(m, &s.perms[pi]))
		}
	}
}

// rehashBag adds m to the bag's kept hashes, or removes it, under every
// renaming they are kept under, copying a shared bagRest first.
func (f *ChoiceFabric) rehashBag(m *msg.Msg, add bool) {
	if f.sym == nil {
		return
	}
	if f.sharedRest && len(f.bagRest) > 0 {
		f.bagRest = slices.Clone(f.bagRest)
	}
	f.sharedRest = false
	for pi := range f.sym.perms {
		b := f.bagAt(pi)
		if e := msgEntry(m, &f.sym.perms[pi]); add {
			b.Add(e)
		} else {
			b.Remove(e)
		}
	}
}

// dropHashes forgets the fabric's cached and kept hashes, for code that
// writes the fabric outside Send and take.
func (f *ChoiceFabric) dropHashes() {
	f.ownChans()
	for i := range f.chans {
		f.chans[i].dropHashes()
	}
	f.sym, f.bagHash, f.bagRest = nil, [2]fp.Bag{}, nil
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
