package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"c3/internal/mem"
)

func line(i int) mem.LineAddr { return mem.LineAddr(uint64(i) * mem.LineBytes) }

func TestGeometry(t *testing.T) {
	c := New(8*1024, 4) // 128 lines, 32 sets x 4 ways
	if c.Sets() != 32 || c.Ways() != 4 {
		t.Fatalf("geometry %dx%d, want 32x4", c.Sets(), c.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4) },
		func() { New(64*3, 2) },   // 3 lines not divisible by 2 ways... actually 3%2 != 0
		func() { New(64*4*3, 4) }, // 3 sets: not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry should panic")
				}
			}()
			f()
		}()
	}
}

func TestInstallLookup(t *testing.T) {
	c := New(4096, 4)
	e := c.Install(line(1))
	e.State = 7
	e.Data.SetWord(0, 42)
	got := c.Lookup(line(1))
	if got == nil || got.State != 7 || got.Data.Word(0) != 42 {
		t.Fatalf("lookup after install: %+v", got)
	}
	if c.Lookup(line(2)) != nil {
		t.Fatal("lookup of absent line should miss")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestDoubleInstallPanics(t *testing.T) {
	c := New(4096, 4)
	c.Install(line(1))
	defer func() {
		if recover() == nil {
			t.Fatal("double install should panic")
		}
	}()
	c.Install(line(1))
}

func TestVictimLRU(t *testing.T) {
	c := New(2*mem.LineBytes, 2) // 1 set, 2 ways
	a, b := line(0), line(1)
	c.Install(a)
	c.Install(b)
	if c.HasSpace(line(2)) {
		t.Fatal("full set should have no space")
	}
	// Touch a so b is LRU.
	c.Touch(c.Probe(a))
	v := c.Victim(line(2))
	if v == nil || v.Addr != b {
		t.Fatalf("victim = %+v, want line b", v)
	}
	c.Remove(v)
	if !c.HasSpace(line(2)) {
		t.Fatal("space should exist after Remove")
	}
	e := c.Install(line(2))
	if e.Addr != line(2) || c.Count() != 2 {
		t.Fatalf("install after eviction failed: %+v count=%d", e, c.Count())
	}
}

func TestVictimNilWhenFree(t *testing.T) {
	c := New(4096, 4)
	c.Install(line(0))
	if v := c.Victim(line(0)); v != nil {
		t.Fatalf("Victim with free ways = %+v, want nil", v)
	}
}

func TestForEachAndCount(t *testing.T) {
	c := New(4096, 4)
	for i := 0; i < 10; i++ {
		c.Install(line(i))
	}
	if c.Count() != 10 {
		t.Fatalf("Count = %d, want 10", c.Count())
	}
	seen := map[mem.LineAddr]bool{}
	c.ForEach(func(e *Entry) { seen[e.Addr] = true })
	if len(seen) != 10 {
		t.Fatalf("ForEach visited %d entries, want 10", len(seen))
	}
}

func TestSetMapping(t *testing.T) {
	c := New(4096, 4) // 16 sets
	// Lines 0 and 16 map to the same set; 0 and 1 to different sets.
	if c.setIndex(line(0)) != c.setIndex(line(16)) {
		t.Fatal("lines 0 and 16 should share a set in a 16-set cache")
	}
	if c.setIndex(line(0)) == c.setIndex(line(1)) {
		t.Fatal("lines 0 and 1 should map to different sets")
	}
	// Install places each line in the frames of its own set.
	for _, i := range []int{0, 16, 1} {
		e, set, found := c.Install(line(i)), c.setOf(line(i)), false
		for w := range set {
			found = found || &set[w] == e
		}
		if !found {
			t.Fatalf("line %d installed outside set %d", i, c.setIndex(line(i)))
		}
	}
}

// TestEntrySize pins the frame layout: the three flags share one word,
// so a 4 MiB, 65,536-frame LLC slab is 6 MiB.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 96 {
		t.Fatalf("sizeof(Entry) = %d, want 96", got)
	}
}

func TestPropertyNeverExceedsWays(t *testing.T) {
	// Property: under arbitrary install/evict traffic, no set overflows
	// and lookups return what was installed.
	f := func(addrs []uint16) bool {
		c := New(2048, 2) // 16 sets x 2 ways
		installed := map[mem.LineAddr]bool{}
		for _, a := range addrs {
			la := mem.LineAddr(uint64(a) * mem.LineBytes)
			if installed[la] {
				continue
			}
			if !c.HasSpace(la) {
				v := c.Victim(la)
				delete(installed, v.Addr)
				c.Remove(v)
			}
			c.Install(la)
			installed[la] = true
		}
		if c.Count() != len(installed) {
			return false
		}
		for la := range installed {
			if c.Probe(la) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
