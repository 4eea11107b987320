package mem

import (
	"math/bits"
	"slices"
	"sync"
)

// Table holds the per-line records of type V that a coherence
// controller keeps: directory entries, transaction buffers, the lines of
// a memory device. It replaces a map[LineAddr]*V with one store whose
// cost scales with the records in it, not with the number of clones.
//
// # Layout
//
// Records are stored by value in one slot slice; an occupancy bitmap
// marks the live slots, and walks visit them in ascending slot order,
// which is fixed by the history of inserts and deletes, so a table and
// its clones walk alike. An insert takes the lowest free slot, a delete
// zeroes its slot, and no other operation moves a record. Stores of at
// most scanSlots slots (every table a litmus machine keeps) find a line
// by scanning the occupied slots; larger ones add an open-addressing
// index from line to slot. The zero Table is empty and allocates
// nothing until its first insert.
//
// # Copy-on-write
//
// The store sits behind a reference count and is shared
// copy-on-write between a table and its Clones, under the rules of the
// cache slab: Clone bumps the count and shares the store; the first
// writing access on either side (Get, Put, Delete) materializes a
// private copy of the occupied slots; Peek, ForEachRO and Lines read
// the shared store in place, so a clone that is only hashed and
// dumped never copies it. Retired stores are recycled through per-type,
// per-size pools (Release); a pooled store is all-zero. The count is a
// plain integer: a table, its clones and their store stay on one
// goroutine, and goroutines share only the pools.
//
// # Records
//
// A record may point only at immutable shared data (sent messages, the
// shared compound tables); it never points at another record. A pointer
// from Get or Put is valid until the next Put on the same table (which
// may grow the store) and must not be kept across a kernel event: a
// handler that needs the record later looks it up again by line. A
// record that holds slices implements Clipper, and its owner grows
// those slices only by append and never writes an element in place.
type Table[V any] struct {
	s *tableStore[V]
}

// Clipper is implemented by records that hold slices. When a shared
// store is copied, Clip runs on every copied record and must cap each
// slice at its length (slices.Clip): the copy then shares only the
// elements both sides already hold, and an append on either side
// reallocates instead of writing into an array the other still reads.
type Clipper interface{ Clip() }

// minSlots is the size of a table's first store, which doubles when
// full. scanSlots is the largest store that finds a line by scanning
// its occupied slots; larger stores keep a hash index.
const (
	minSlots  = 4
	scanSlots = 8
)

type slot[V any] struct {
	line LineAddr
	val  V
}

type tableStore[V any] struct {
	refs  int32
	n     int
	low   int // lowest bitmap word that may have a free bit
	slots []slot[V]
	used  []uint64
	// index maps a line's hash to its slot+1 (0 = empty), with linear
	// probing and backward-shift deletion; nil up to scanSlots slots.
	index []int32
	shift uint8 // 64 - log2(len(index))
}

// storePools recycles all-zero stores of one record type, by log2 of
// the slot count.
type storePools [32]sync.Pool

// tablePools maps (*V)(nil), one key per record type, to its pools.
var tablePools sync.Map

func poolsOf[V any]() *storePools {
	key := any((*V)(nil))
	p, ok := tablePools.Load(key)
	if !ok {
		p, _ = tablePools.LoadOrStore(key, new(storePools))
	}
	return p.(*storePools)
}

func getStore[V any](slots int) *tableStore[V] {
	s, _ := poolsOf[V]()[bits.Len(uint(slots))-1].Get().(*tableStore[V])
	if s == nil {
		s = &tableStore[V]{slots: make([]slot[V], slots), used: make([]uint64, (slots+63)/64)}
		if slots > scanSlots {
			s.index = make([]int32, 2*slots)
			s.shift = uint8(64 - bits.Len(uint(2*slots)) + 1)
		}
	}
	s.refs = 1
	return s
}

// putStore zeroes the occupied slots, the bitmap and the index,
// restoring the pool's all-zero invariant, and pools the store.
func putStore[V any](s *tableStore[V]) {
	s.each(func(i int) { s.slots[i] = slot[V]{} })
	clear(s.used)
	clear(s.index)
	s.n, s.low = 0, 0
	poolsOf[V]()[bits.Len(uint(len(s.slots)))-1].Put(s)
}

// each calls fn with every occupied slot, in ascending order.
func (s *tableStore[V]) each(fn func(i int)) {
	for w, word := range s.used {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			fn(i)
		}
	}
}

func (s *tableStore[V]) home(a LineAddr) int {
	return int((uint64(a) >> LineShift) * 0x9e3779b97f4a7c15 >> s.shift)
}

// find returns a's slot, or -1.
func (s *tableStore[V]) find(a LineAddr) int {
	if s.index == nil {
		for w, word := range s.used {
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if s.slots[i].line == a {
					return i
				}
			}
		}
		return -1
	}
	mask := len(s.index) - 1
	for h := s.home(a); ; h = (h + 1) & mask {
		j := s.index[h]
		if j == 0 {
			return -1
		}
		if s.slots[j-1].line == a {
			return int(j - 1)
		}
	}
}

func (s *tableStore[V]) indexAdd(a LineAddr, i int) {
	mask := len(s.index) - 1
	h := s.home(a)
	for s.index[h] != 0 {
		h = (h + 1) & mask
	}
	s.index[h] = int32(i + 1)
}

// indexDel removes a's index entry by backward shift: each later entry
// of the probe run moves into the hole unless its home lies cyclically
// in (hole, entry], so every remaining line stays reachable from its
// home with no tombstones.
func (s *tableStore[V]) indexDel(a LineAddr) {
	mask := len(s.index) - 1
	h := s.home(a)
	for s.slots[s.index[h]-1].line != a {
		h = (h + 1) & mask
	}
	for j := h; ; {
		s.index[h] = 0
		for {
			j = (j + 1) & mask
			v := s.index[j]
			if v == 0 {
				return
			}
			k := s.home(s.slots[v-1].line)
			if h <= j && (k <= h || k > j) || h > j && k <= h && k > j {
				s.index[h] = v
				h = j
				break
			}
		}
	}
}

// Peek returns a's record for reading, or nil. It never copies a shared
// store; the caller must not write through the pointer.
func (t *Table[V]) Peek(a LineAddr) *V {
	if t.s == nil {
		return nil
	}
	if i := t.s.find(a); i >= 0 {
		return &t.s.slots[i].val
	}
	return nil
}

// Get returns a's record for writing, or nil. A shared store is copied
// first, unless a is absent.
func (t *Table[V]) Get(a LineAddr) *V {
	if t.s == nil {
		return nil
	}
	i := t.s.find(a)
	if i < 0 {
		return nil
	}
	t.materialize()
	return &t.s.slots[i].val
}

// Put returns a's record for writing, inserting a zero record in the
// lowest free slot if a is absent.
func (t *Table[V]) Put(a LineAddr) *V {
	if p := t.Get(a); p != nil {
		return p
	}
	if t.s == nil {
		t.s = getStore[V](minSlots)
	}
	t.materialize()
	if t.s.n == len(t.s.slots) {
		t.grow()
	}
	s := t.s
	w := s.low
	for s.used[w] == ^uint64(0) {
		w++
	}
	s.low = w
	i := w<<6 + bits.TrailingZeros64(^s.used[w])
	s.used[w] |= 1 << (i & 63)
	s.n++
	s.slots[i].line = a
	if s.index != nil {
		s.indexAdd(a, i)
	}
	return &s.slots[i].val
}

// Delete removes a's record, zeroing its slot; absent lines are a no-op.
// No other record moves.
func (t *Table[V]) Delete(a LineAddr) {
	if t.s == nil {
		return
	}
	i := t.s.find(a)
	if i < 0 {
		return
	}
	t.materialize()
	s := t.s
	if s.index != nil {
		s.indexDel(a)
	}
	s.slots[i] = slot[V]{}
	s.used[i>>6] &^= 1 << (i & 63)
	s.n--
	s.low = min(s.low, i>>6)
}

// grow doubles a full, private store. Slots keep their indices, so walk
// order is unchanged. The old store is left to the collector rather
// than pooled: a pointer kept across the insert (against the rules)
// then writes into garbage, never into another table.
func (t *Table[V]) grow() {
	s := t.s
	ns := getStore[V](2 * len(s.slots))
	copy(ns.slots, s.slots)
	copy(ns.used, s.used)
	ns.n, ns.low = s.n, s.low
	if ns.index != nil {
		s.each(func(i int) { ns.indexAdd(s.slots[i].line, i) })
	}
	t.s = ns
}

// materialize gives the table a private store before a write. With a
// sole reference (the simulator, which never clones) it costs one
// compare. A shared store is copied occupied slot by occupied slot into
// an all-zero pooled store of the same size, so slot indices, walk
// order and the index carry over unchanged; records that hold slices
// are clipped (Clipper), and the copy drops its reference to the
// shared one.
func (t *Table[V]) materialize() {
	s := t.s
	if s.refs == 1 {
		return
	}
	ns := getStore[V](len(s.slots))
	_, clips := any((*V)(nil)).(Clipper)
	s.each(func(i int) {
		ns.slots[i] = s.slots[i]
		if clips {
			any(&ns.slots[i].val).(Clipper).Clip()
		}
	})
	copy(ns.used, s.used)
	copy(ns.index, s.index)
	ns.n, ns.low = s.n, s.low
	t.s = ns
	s.refs--
}

// ForEachRO visits every record in slot order without copying a shared
// store; fn must not write through the pointer, insert or delete.
func (t *Table[V]) ForEachRO(fn func(LineAddr, *V)) {
	if t.s == nil {
		return
	}
	s := t.s
	s.each(func(i int) { fn(s.slots[i].line, &s.slots[i].val) })
}

// Lines appends the table's lines to dst in ascending address order,
// for walks whose order is observable (dumps, reclamation).
func (t *Table[V]) Lines(dst []LineAddr) []LineAddr {
	n := len(dst)
	t.ForEachRO(func(a LineAddr, _ *V) { dst = append(dst, a) })
	slices.Sort(dst[n:])
	return dst
}

// Clone returns a table sharing this one's store copy-on-write; it costs
// one increment and no allocation.
func (t *Table[V]) Clone() Table[V] {
	if t.s != nil {
		t.s.refs++
	}
	return Table[V]{s: t.s}
}

// Release drops the table's reference to its store, recycling the store
// once no clone references it, and leaves the table empty. Optional: an
// unreleased store is garbage collected.
func (t *Table[V]) Release() {
	if t.s == nil {
		return
	}
	if t.s.refs--; t.s.refs == 0 {
		putStore(t.s)
	}
	t.s = nil
}

// Shared reports whether the store is shared with a clone (a write would
// copy it). For tests.
func (t *Table[V]) Shared() bool { return t.s != nil && t.s.refs > 1 }
