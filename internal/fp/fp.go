// Package fp is the model checker's state fingerprint. Each checked
// component writes its protocol-visible state as fixed-width words into
// a Hasher, with node ids and line addresses mapped through a Renamer,
// the symmetry renaming the checker is canonicalizing under. The Hasher
// absorbs each word whole: it XORs the word into its 64-bit state and
// passes the state through the MurmurHash3 finalizer, one bijective,
// full-avalanche round per word. Unordered collections (Go maps, cache
// frames, the fabric's reorderable bag) hash as a Bag: the sum of mixed
// per-entry hashes, which is independent of iteration order, so no
// caller sorts. Nothing here formats or allocates.
package fp

import (
	"math/bits"

	"c3/internal/mem"
	"c3/internal/msg"
)

// seed is the state of an empty hasher (the FNV-1a offset basis; any
// nonzero constant would do).
const seed = 14695981039346656037

// Hasher accumulates a 64-bit hash of a word stream. Start one with New.
type Hasher struct{ h uint64 }

// New returns an empty hasher.
func New() Hasher { return Hasher{h: seed} }

// Sum returns the hash of everything written so far.
func (h *Hasher) Sum() uint64 { return h.h }

// Word writes v in one mix round, so every bit of v reaches every bit
// of the state.
func (h *Hasher) Word(v uint64) { h.h = mix(h.h ^ v) }

// Int writes v as one word.
func (h *Hasher) Int(v int) { h.Word(uint64(v)) }

// Bool writes b as one word.
func (h *Hasher) Bool(b bool) {
	if b {
		h.Word(1)
	} else {
		h.Word(0)
	}
}

// String writes the length of s, then its bytes packed little-endian
// eight to a word (the last word zero-padded).
func (h *Hasher) String(s string) {
	h.Int(len(s))
	for i := 0; i < len(s); i += 8 {
		var w uint64
		for j := i; j < len(s) && j < i+8; j++ {
			w |= uint64(s[j]) << (8 * (j - i))
		}
		h.Word(w)
	}
}

// Data writes the words of a line payload.
func (h *Hasher) Data(d *mem.Data) {
	for _, w := range d {
		h.Word(w)
	}
}

// Line writes a line address under rn.
func (h *Hasher) Line(a mem.LineAddr, rn Renamer) { h.Word(uint64(rn.Line(a))) }

// Addr writes a byte address under rn: its line renames, its offset
// within the line does not.
func (h *Hasher) Addr(a mem.Addr, rn Renamer) {
	l := a.Line()
	h.Word(uint64(rn.Line(l)) + uint64(a-mem.Addr(l)))
}

// Node writes a node id under rn.
func (h *Hasher) Node(id msg.NodeID, rn Renamer) { h.Int(int(rn.Node(id))) }

// Nodes writes a node set with every member renamed by rn.
func (h *Hasher) Nodes(s msg.NodeSet, rn Renamer) {
	var out msg.NodeSet
	for m := uint64(s); m != 0; m &= m - 1 {
		out.Add(rn.Node(msg.NodeID(bits.TrailingZeros64(m))))
	}
	h.Word(uint64(out))
}

// Msg writes every protocol-visible field of m under rn: the small
// fields packed into one word, the line, the three node ids packed into
// one word, the scalar, then the payload if there is one. Serial and
// Seq are transport bookkeeping and stay out, and so does Dirty on a
// message without data. Should a word index, an ack count or a renamed
// node id not fit its packed slot, the first word's top bit is set and
// all five follow as words of their own, so the stream stays
// unambiguous.
func (h *Hasher) Msg(m *msg.Msg, rn Renamer) {
	src, dst, req := rn.Node(m.Src)+1, rn.Node(m.Dst)+1, rn.Node(m.Req)+1
	w := uint64(m.Type) | uint64(m.VNet)<<8 | uint64(m.Mask)<<16
	if m.Data != nil {
		w |= 1 << 24
		if m.Dirty {
			w |= 1 << 25
		}
	}
	if m.Acq {
		w |= 1 << 26
	}
	if m.Rel {
		w |= 1 << 27
	}
	if m.Poisoned {
		w |= 1 << 28
	}
	packed := uint(m.Word) < 1<<8 && uint(m.Acks) < 1<<16 &&
		uint(src) < 1<<21 && uint(dst) < 1<<21 && uint(req) < 1<<21
	if packed {
		w |= uint64(m.Word)<<32 | uint64(m.Acks)<<40
	} else {
		w |= 1 << 63
	}
	h.Word(w)
	h.Line(m.Addr, rn)
	if packed {
		h.Word(uint64(src) | uint64(dst)<<21 | uint64(req)<<42)
	} else {
		h.Int(m.Word)
		h.Int(m.Acks)
		h.Int(int(src))
		h.Int(int(dst))
		h.Int(int(req))
	}
	h.Word(m.Val)
	if m.Data != nil {
		h.Data(m.Data)
	}
}

// MaybeMsg writes whether m is set, then m if it is: for a component's
// optional held message.
func (h *Hasher) MaybeMsg(m *msg.Msg, rn Renamer) {
	h.Bool(m != nil)
	if m != nil {
		h.Msg(m, rn)
	}
}

// Msgs writes a message list in order: its length, then each message.
func (h *Hasher) Msgs(ms []*msg.Msg, rn Renamer) {
	h.Int(len(ms))
	for _, m := range ms {
		h.Msg(m, rn)
	}
}

// Bag writes an unordered collection: its entry count and its sum.
func (h *Hasher) Bag(b Bag) {
	h.Word(b.n)
	h.Word(b.sum)
}

// Bag is a multiset of entry hashes. Adding is commutative, so a map or
// a slab hashes the same whatever order it is walked in. Each entry is
// hashed on its own Hasher and mixed before it is summed, so entries
// that differ in one word do not cancel in the sum.
type Bag struct{ n, sum uint64 }

// Add puts the entry hashed by e into the bag.
func (b *Bag) Add(e Hasher) {
	b.n++
	b.sum += mix(e.h)
}

// Remove takes the entry hashed by e out of the bag, undoing an Add of
// an equal entry, so a bag kept current as entries come and go hashes
// the same as one rebuilt from the entries it holds.
func (b *Bag) Remove(e Hasher) {
	b.n--
	b.sum -= mix(e.h)
}

// mix is the MurmurHash3 64-bit finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Renamer maps node ids and line addresses to their images under one
// symmetry renaming. It must be a bijection on each, or distinct states
// would merge.
type Renamer interface {
	Node(msg.NodeID) msg.NodeID
	Line(mem.LineAddr) mem.LineAddr
}

// Identity is the renaming that moves nothing.
type Identity struct{}

// Node implements Renamer.
func (Identity) Node(id msg.NodeID) msg.NodeID { return id }

// Line implements Renamer.
func (Identity) Line(a mem.LineAddr) mem.LineAddr { return a }
