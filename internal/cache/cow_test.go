package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"c3/internal/mem"
)

// same reports whether two caches are fully identical: every frame
// (valid or not), the touched-set bitmap, and the LRU clock.
func same(a, b *Cache) bool {
	return slices.Equal(a.s.entries, b.s.entries) &&
		slices.Equal(a.s.touched, b.s.touched) && a.tick == b.tick
}

// deepCopy clones c onto a private, fully copied slab: a reference that
// never shares and never materializes.
func deepCopy(c *Cache) *Cache {
	n := *c
	n.s = &slab{
		entries: append([]Entry(nil), c.s.entries...),
		touched: append([]uint64(nil), c.s.touched...),
		ways:    c.s.ways,
		refs:    1,
	}
	return &n
}

// checkTouched asserts the slab invariant: every frame outside a marked
// set is all-zero.
func checkTouched(t *testing.T, c *Cache, where string) {
	t.Helper()
	for i := range c.s.entries {
		si := i / c.ways
		if c.s.touched[si>>6]&(1<<(si&63)) == 0 && c.s.entries[i] != (Entry{}) {
			t.Fatalf("%s: frame %d of unmarked set %d is not zero: %+v", where, i, si, c.s.entries[i])
		}
	}
}

// checkZero asserts a slab fresh from New is all-zero, frames and bitmap.
func checkZero(t *testing.T, c *Cache) {
	t.Helper()
	for i := range c.s.entries {
		if c.s.entries[i] != (Entry{}) {
			t.Fatalf("frame %d not reset: %+v", i, c.s.entries[i])
		}
	}
	for w, word := range c.s.touched {
		if word != 0 {
			t.Fatalf("touched word %d not reset: %x", w, word)
		}
	}
}

func addr(i int) mem.LineAddr { return mem.LineAddr(mem.Addr(i * mem.LineBytes).Line()) }

// mutate applies one random-but-reproducible operation to c: the same
// (op, a, v) on two identical caches leaves them identical.
func mutate(c *Cache, op int, a mem.LineAddr, v int) {
	switch op {
	case 0:
		if e := c.Probe(a); e != nil {
			e.State = v % 5
			e.Data.SetWord(1, uint64(v))
		}
	case 1:
		if c.Probe(a) == nil && c.HasSpace(a) {
			c.Install(a).State = v % 5
		}
	case 2:
		if e := c.Probe(a); e != nil {
			c.Touch(e)
		}
	case 3:
		if e := c.Probe(a); e != nil {
			c.Remove(e)
		}
	case 4: // remove then reinstall: a fresh frame in the same set
		if e := c.Probe(a); e != nil {
			c.Remove(e)
			e = c.Install(a)
			e.State = v % 5
			e.DataValid = true
		}
	case 5: // evict the LRU frame to make room, then install
		if c.Probe(a) == nil {
			if !c.HasSpace(a) {
				c.Remove(c.Victim(a))
			}
			c.Install(a).Data.SetWord(0, uint64(v))
		}
	}
}

// TestCOWCloneIsolation drives random interleaved mutations on a parent
// and its clone and checks each against a private deep copy driven by
// the same operations: the first write on either side must materialize
// exactly the shared slab (copying only the marked sets into an all-zero
// pooled one), and no mutation on one side is ever visible on the
// other. The multi-set geometry spreads lines over both bitmap words
// and leaves most sets untouched; after each round both slabs retire
// and the next New must be all-zero.
func TestCOWCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range []struct{ sets, ways int }{{4, 2}, {128, 2}} {
		size := g.sets * g.ways * mem.LineBytes
		// Six sets across the bitmap, four competing lines each.
		pick := func() mem.LineAddr { return addr(rng.Intn(4)*g.sets + rng.Intn(6)*23%g.sets) }
		for round := 0; round < 50; round++ {
			p := New(size, g.ways)
			checkZero(t, p)
			for i := 0; i < 8; i++ {
				mutate(p, 5, pick(), rng.Intn(100))
			}
			c := p.Clone()
			if !p.Shared() || !c.Shared() {
				t.Fatal("slab not shared right after Clone")
			}
			pRef, cRef := deepCopy(p), deepCopy(p)
			for step := 0; step < 30; step++ {
				m, mRef, other, otherRef := p, pRef, c, cRef
				if rng.Intn(2) == 1 {
					m, mRef, other, otherRef = c, cRef, p, pRef
				}
				op, a, v := rng.Intn(6), pick(), rng.Intn(100)
				mutate(m, op, a, v)
				mutate(mRef, op, a, v)
				where := fmt.Sprintf("sets %d round %d step %d op %d", g.sets, round, step, op)
				if !same(m, mRef) {
					t.Fatalf("%s: mutated cache differs from its deep copy", where)
				}
				if !same(other, otherRef) {
					t.Fatalf("%s: mutation leaked to the other cache", where)
				}
				checkTouched(t, p, where)
				checkTouched(t, c, where)
			}
			p.Release()
			c.Release()
			n := New(size, g.ways) // may reuse either retired slab
			checkZero(t, n)
			n.Release()
		}
	}
}

// TestCOWReadOnlyAccessorsDoNotMaterialize: probing, iterating, and
// counting through the RO accessors must leave a fresh clone's slab
// shared; a single mutating access must unshare it.
func TestCOWReadOnlyAccessorsDoNotMaterialize(t *testing.T) {
	p := New(8*mem.LineBytes, 2)
	p.Install(addr(1)).State = 3
	p.Install(addr(2)).State = 1
	c := p.Clone()

	c.ProbeRO(addr(1))
	c.ForEachRO(func(*Entry) {})
	_ = c.Count()
	_ = c.HasSpace(addr(3))
	if !c.Shared() {
		t.Fatal("read-only access materialized the slab")
	}
	if e := c.Probe(addr(1)); e == nil {
		t.Fatal("line lost")
	}
	if c.Shared() || p.Shared() {
		t.Fatal("mutating access left the slab shared")
	}
}

// TestCOWReleaseRecycles: a released slab returns to the pool and the
// next New of the same geometry reuses it fully reset.
func TestCOWReleaseRecycles(t *testing.T) {
	p := New(8*mem.LineBytes, 2)
	p.Install(addr(1)).State = 3
	c := p.Clone()
	c.Release() // parent still holds a ref: slab must NOT recycle
	if e := p.Probe(addr(1)); e == nil || e.State != 3 {
		t.Fatal("release of a clone corrupted the parent")
	}
	p.Release()
	n := New(8*mem.LineBytes, 2) // may reuse the pooled slab
	if n.Count() != 0 {
		t.Fatal("pooled slab not reset by New")
	}
	checkZero(t, n)
}

// TestCOWCloneOfCloneChain: grandchildren stay isolated through a chain
// of clones with mutations at each level.
func TestCOWCloneOfCloneChain(t *testing.T) {
	a := New(8*mem.LineBytes, 2)
	a.Install(addr(1)).State = 1
	b := a.Clone()
	b.Probe(addr(1)).State = 2
	c := b.Clone()
	c.Probe(addr(1)).State = 3
	if a.Probe(addr(1)).State != 1 || b.Probe(addr(1)).State != 2 || c.Probe(addr(1)).State != 3 {
		t.Fatal("clone chain lost isolation")
	}
}
