package msg

import (
	"fmt"
	"math/bits"
	"strings"
)

// NodeSet is a dense set of NodeIDs, packed as a 64-bit mask. It replaces
// the map[NodeID]bool sharer/pending vectors in the hot protocol state:
// a set is one word, so cloning a directory entry is a plain struct copy
// and membership tests drop the map-hash cost. NodeIDs are small by
// construction (an L1, a C3 instance, or a directory per cluster), so 64
// slots bound every realistic topology; Add panics past the width rather
// than silently dropping a sharer.
//
// The zero value is the empty set. NodeSet is a value type: assignment
// copies, so snapshots need no deep-copy helper.
type NodeSet uint64

// nodeSetWidth is the number of representable NodeIDs.
const nodeSetWidth = 64

// Has reports membership. IDs outside [0, 64) — including None — are
// never members.
func (s NodeSet) Has(id NodeID) bool {
	if id < 0 || id >= nodeSetWidth {
		return false
	}
	return s&(1<<uint(id)) != 0
}

// Add inserts id. It panics on ids the mask cannot represent (None or
// >= 64): losing a sharer silently would corrupt coherence.
func (s *NodeSet) Add(id NodeID) {
	if id < 0 || id >= nodeSetWidth {
		panic(fmt.Sprintf("msg: NodeSet.Add(%d) out of range", id))
	}
	*s |= 1 << uint(id)
}

// Remove deletes id; removing a non-member (or an out-of-range id) is a
// no-op, mirroring map delete semantics.
func (s *NodeSet) Remove(id NodeID) {
	if id < 0 || id >= nodeSetWidth {
		return
	}
	*s &^= 1 << uint(id)
}

// Len returns the member count.
func (s NodeSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no members.
func (s NodeSet) Empty() bool { return s == 0 }

// ForEach visits members in ascending id order (deterministic, unlike
// map iteration — dump/hash paths rely on this).
func (s NodeSet) ForEach(fn func(NodeID)) {
	for m := uint64(s); m != 0; m &= m - 1 {
		fn(NodeID(bits.TrailingZeros64(m)))
	}
}

// IDs returns the members in ascending order.
func (s NodeSet) IDs() []NodeID {
	if s == 0 {
		return nil
	}
	out := make([]NodeID, 0, s.Len())
	s.ForEach(func(id NodeID) { out = append(out, id) })
	return out
}

// String renders like a sorted int slice ("[2 5]"), matching what the
// pre-NodeSet dump code produced from sorted map keys.
func (s NodeSet) String() string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	s.ForEach(func(id NodeID) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
	})
	b.WriteByte(']')
	return b.String()
}
