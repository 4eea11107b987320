// Package cache provides the set-associative storage arrays used by the
// private L1 caches and by the C3 controller's CXL cache (the LLC slice
// holding copies of remote-memory lines).
//
// The array stores tags, per-line protocol state (an opaque int owned by
// the controller), and real line data. Replacement is LRU. Multi-step
// evictions (e.g. the C3 cross-domain eviction of Fig. 7) are driven by
// the owning controller: Victim nominates a line, the controller runs its
// eviction transaction, then Remove + Install complete the replacement.
//
// # Storage layout and copy-on-write
//
// All frames live in one flat []Entry slab (set s occupies
// entries[s*ways : (s+1)*ways]), so Lookup and Probe index it directly.
// Beside the frames the slab keeps a touched-set bitmap: Install marks
// its set, and every frame outside a marked set is all-zero. Whole-cache
// walks — ForEach, Fingerprint, materialize's copy, and the clear before
// a slab is pooled — visit only marked sets, so building, copying,
// hashing and retiring a cache cost O(sets it touched), not O(capacity):
// a litmus iteration touches a handful of lines of two 4 MiB CXL caches.
//
// The slab sits behind a reference count and is shared
// copy-on-write between a cache and its Clones: Clone bumps the count
// and shares the slab; the first mutating access on either side
// materializes a private copy. Every
// accessor that hands out an *Entry the caller may write through
// (Lookup, Probe, Victim, VictimFunc, Install, ForEach) materializes
// first; the RO variants (ProbeRO, ForEachRO) read the shared slab
// without copying and exist for hash/dump/invariant paths that must stay
// O(0) on freshly cloned snapshots. Pointers obtained from either kind
// of accessor are invalidated by the next cache call and must not be
// retained across calls. The count is a plain integer: a cache, its
// clones and their slab stay on one goroutine, and goroutines share only
// the pools.
//
// Retired slabs are recycled through per-geometry sync.Pools (Release).
// A pooled slab is all-zero, frames and bitmap alike: the last reference
// to drop clears the marked sets before pooling, so New takes a slab
// from the pool without touching it. Under the model checker's clone
// churn and the litmus runner's per-iteration machines the steady state
// allocates almost nothing.
package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"c3/internal/fp"
	"c3/internal/mem"
)

// Entry is one cache line frame. The three flags share one word, so a
// frame is 96 bytes, and they sit beside Addr, so a probe reads one
// CPU cache line per way.
type Entry struct {
	Addr  mem.LineAddr
	Valid bool
	// DataValid distinguishes frames whose payload is current from frames
	// tracked for state only (e.g. C3 lines whose dirty data lives in an
	// L1 owner).
	DataValid bool
	// Poisoned marks a payload delivered with msg.Poisoned set (retry
	// exhaustion or a host crash that lost the only copy): the frame is
	// usable for coherence but its data is untrustworthy, and loads that
	// consume it surface the flag in their results.
	Poisoned bool
	// State is protocol-specific; controllers define their own encoding.
	State int
	Data  mem.Data

	lru uint64
}

// slab is the refcounted backing store shared copy-on-write between a
// cache and its clones. refs counts the Cache instances referencing it;
// writers may touch entries only when refs == 1 (sole owner) — otherwise
// they copy first (materialize).
//
// touched has one bit per set; a frame in an unmarked set is all-zero.
type slab struct {
	refs    int32
	entries []Entry
	touched []uint64
	ways    int
}

// geometry keys the slab pools: different cache geometries never mix.
type geometry struct{ lines, ways int }

// slabPools recycles retired, all-zero slabs (sync.Map of geometry ->
// *sync.Pool).
var slabPools sync.Map

func getSlab(g geometry) *slab {
	pi, ok := slabPools.Load(g)
	if !ok {
		pi, _ = slabPools.LoadOrStore(g, &sync.Pool{})
	}
	s, _ := pi.(*sync.Pool).Get().(*slab)
	if s == nil {
		nsets := g.lines / g.ways
		s = &slab{
			entries: make([]Entry, g.lines),
			touched: make([]uint64, (nsets+63)/64),
			ways:    g.ways,
		}
	}
	s.refs = 1
	return s
}

// putSlab zeroes the marked sets and the bitmap, restoring the pool's
// all-zero invariant, and pools the slab.
func putSlab(s *slab) {
	s.eachSet(func(lo, hi int) { clear(s.entries[lo:hi]) })
	clear(s.touched)
	if pi, ok := slabPools.Load(geometry{len(s.entries), s.ways}); ok {
		pi.(*sync.Pool).Put(s)
	}
}

// mark records that set si may hold a non-zero frame.
func (s *slab) mark(si int) { s.touched[si>>6] |= 1 << (si & 63) }

// eachSet calls fn with the frame range [lo, hi) of every marked set,
// in ascending set order.
func (s *slab) eachSet(fn func(lo, hi int)) {
	for w, word := range s.touched {
		for word != 0 {
			lo := (w<<6 + bits.TrailingZeros64(word)) * s.ways
			word &= word - 1
			fn(lo, lo+s.ways)
		}
	}
}

// Cache is a set-associative array. Create with New.
type Cache struct {
	s       *slab
	setMask uint64
	ways    int
	tick    uint64

	// Hits/Misses count Lookup outcomes, for MPKI accounting.
	Hits, Misses uint64
}

// New builds a cache of the given total size in bytes and associativity.
// Size must be a multiple of ways*mem.LineBytes and the set count a
// power of two. The frame array is one pooled, all-zero slab, so
// construction costs O(1) and at most one allocation.
func New(sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: size and ways must be positive")
	}
	lines := sizeBytes / mem.LineBytes
	if lines%ways != 0 {
		panic("cache: size not divisible by ways")
	}
	nsets := lines / ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	return &Cache{s: getSlab(geometry{lines, ways}), setMask: uint64(nsets - 1), ways: ways}
}

// Clone returns a copy of the array, including LRU ordering and hit/miss
// counters, for model-checker state snapshots. The frame slab is shared
// copy-on-write: the clone costs O(1) and the first mutating access on
// either side materializes a private copy.
func (c *Cache) Clone() *Cache {
	c.s.refs++
	n := *c
	return &n
}

// Release drops the cache's reference to its slab, recycling it through
// the pool once no clone references it. The cache must not be used
// afterwards. Calling Release is optional (an unreleased slab is simply
// garbage collected); the model checker releases retired snapshots to
// keep the clone hot path allocation-free.
func (c *Cache) Release() {
	if c.s == nil {
		return
	}
	if c.s.refs--; c.s.refs == 0 {
		putSlab(c.s)
	}
	c.s = nil
}

// materialize gives the cache a private slab before a write. With a sole
// reference the slab is already private and writes happen in place — the
// no-clone fast path (litmus/soak) pays one compare. Shared slabs are
// copied, marked sets only (the pooled target is all-zero), and the
// copy drops its reference to the shared one.
func (c *Cache) materialize() {
	s := c.s
	if s.refs == 1 {
		return
	}
	ns := getSlab(geometry{len(s.entries), s.ways})
	s.eachSet(func(lo, hi int) { copy(ns.entries[lo:hi], s.entries[lo:hi]) })
	copy(ns.touched, s.touched)
	c.s = ns
	s.refs--
}

// Shared reports whether the frame slab is currently shared with a clone
// (ie. a write would copy). For tests.
func (c *Cache) Shared() bool { return c.s.refs > 1 }

// Sets reports the set count.
func (c *Cache) Sets() int { return len(c.s.entries) / c.ways }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.ways }

// setIndex derives the set of addr from the line index, with the line
// shift taken from mem so the two constants cannot drift.
func (c *Cache) setIndex(addr mem.LineAddr) int {
	return int((uint64(addr) >> mem.LineShift) & c.setMask)
}

func (c *Cache) setOf(addr mem.LineAddr) []Entry {
	si := c.setIndex(addr)
	return c.s.entries[si*c.ways : (si+1)*c.ways]
}

// Lookup returns the entry for addr, or nil on miss. It counts hit/miss
// statistics but does not touch LRU state; call Touch on use. The caller
// may write through the returned pointer.
func (c *Cache) Lookup(addr mem.LineAddr) *Entry {
	c.materialize()
	set := c.setOf(addr)
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			c.Hits++
			return &set[i]
		}
	}
	c.Misses++
	return nil
}

// Probe is Lookup without statistics. The caller may write through the
// returned pointer; use ProbeRO on read-only paths that must not
// materialize a shared snapshot.
func (c *Cache) Probe(addr mem.LineAddr) *Entry {
	c.materialize()
	return c.probe(addr)
}

// ProbeRO is Probe for read-only inspection (hashing, dumps, invariant
// checks): it never copies a shared slab. The caller must not write
// through the returned pointer.
func (c *Cache) ProbeRO(addr mem.LineAddr) *Entry {
	return c.probe(addr)
}

func (c *Cache) probe(addr mem.LineAddr) *Entry {
	set := c.setOf(addr)
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Touch marks e most recently used. e must come from an accessor that
// materializes (Lookup/Probe/Install), so the write lands in a private
// slab.
func (c *Cache) Touch(e *Entry) {
	c.tick++
	e.lru = c.tick
}

// HasSpace reports whether addr can be installed without eviction.
func (c *Cache) HasSpace(addr mem.LineAddr) bool {
	set := c.setOf(addr)
	for i := range set {
		if !set[i].Valid {
			return true
		}
	}
	return false
}

// Victim returns the LRU valid entry of addr's set if the set is full,
// or nil if a free way exists. The caller evicts it (protocol flow),
// then calls Remove.
func (c *Cache) Victim(addr mem.LineAddr) *Entry {
	c.materialize()
	set := c.setOf(addr)
	var victim *Entry
	for i := range set {
		if !set[i].Valid {
			return nil
		}
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// VictimFunc is Victim restricted to entries ok approves (e.g. lines
// with no transaction in flight). It returns nil either when a free way
// exists or when no eligible victim exists; use HasSpace to distinguish.
func (c *Cache) VictimFunc(addr mem.LineAddr, ok func(*Entry) bool) *Entry {
	c.materialize()
	set := c.setOf(addr)
	var victim *Entry
	for i := range set {
		if !set[i].Valid {
			return nil
		}
	}
	for i := range set {
		if !ok(&set[i]) {
			continue
		}
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// Install claims a free frame for addr, marks its set touched, and
// returns the frame. It panics if the set is full (the controller must
// have evicted first) or if addr is already present.
func (c *Cache) Install(addr mem.LineAddr) *Entry {
	c.materialize()
	set := c.setOf(addr)
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			panic(fmt.Sprintf("cache: double install of %v", addr))
		}
	}
	for i := range set {
		if !set[i].Valid {
			c.s.mark(c.setIndex(addr))
			e := &set[i]
			*e = Entry{Addr: addr, Valid: true}
			c.Touch(e)
			return e
		}
	}
	panic(fmt.Sprintf("cache: install of %v into full set", addr))
}

// Remove frees e's frame, zeroing it; its set stays marked until the
// slab is retired. e must come from an accessor that materializes.
func (c *Cache) Remove(e *Entry) {
	*e = Entry{}
}

// ForEach visits every valid entry; the caller may write through the
// pointer. The callback must not install or remove entries. Use
// ForEachRO on read-only paths.
func (c *Cache) ForEach(fn func(*Entry)) {
	c.materialize()
	c.forEach(fn)
}

// ForEachRO visits every valid entry without materializing a shared
// slab. The callback must not write through the pointer nor install or
// remove entries.
func (c *Cache) ForEachRO(fn func(*Entry)) {
	c.forEach(fn)
}

func (c *Cache) forEach(fn func(*Entry)) {
	es := c.s.entries
	c.s.eachSet(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if es[i].Valid {
				fn(&es[i])
			}
		}
	})
}

// Fingerprint writes the valid frames into h as a bag of (line under rn,
// state, data-valid flag, payload if valid). Stale payloads are left
// out, and when skipInvalid is set, so are frames in state 0: the
// caller has proven set conflicts impossible, so a frame invalidated in
// place and a frame never installed cannot behave differently.
// Read-only: it never materializes a shared slab.
func (c *Cache) Fingerprint(h *fp.Hasher, rn fp.Renamer, skipInvalid bool) {
	var frames fp.Bag
	c.forEach(func(e *Entry) {
		if skipInvalid && e.State == 0 {
			return
		}
		f := fp.New()
		f.Line(e.Addr, rn)
		f.Int(e.State)
		f.Bool(e.DataValid)
		if e.DataValid {
			f.Data(&e.Data)
		}
		frames.Add(f)
	})
	h.Bag(frames)
}

// Count returns the number of valid entries.
func (c *Cache) Count() int {
	n := 0
	c.ForEachRO(func(*Entry) { n++ })
	return n
}
