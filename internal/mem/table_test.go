package mem

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// rec is a test record holding a slice, the shape of a transaction
// buffer with a stalled-message list.
type rec struct {
	v    int
	list []int
}

func (r *rec) Clip() { r.list = slices.Clip(r.list) }

func ln(i int) LineAddr { return LineAddr(i * LineBytes) }

// contentsOf reads every record through the read-only walk.
func contentsOf(t *Table[rec]) map[LineAddr]rec {
	out := map[LineAddr]rec{}
	t.ForEachRO(func(a LineAddr, r *rec) {
		if _, dup := out[a]; dup {
			panic("line visited twice")
		}
		out[a] = rec{v: r.v, list: slices.Clone(r.list)}
	})
	return out
}

func sameContents(a, b map[LineAddr]rec) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		y, ok := b[k]
		if !ok || x.v != y.v || !slices.Equal(x.list, y.list) {
			return false
		}
	}
	return true
}

// apply runs one random operation on t and on its map model.
func apply(rng *rand.Rand, t *Table[rec], model map[LineAddr]rec, lines int) {
	a := ln(rng.Intn(lines))
	x := rng.Int()
	switch rng.Intn(4) {
	case 0, 1:
		r := t.Put(a)
		r.v++
		r.list = append(r.list, x)
		m := model[a]
		m.v++
		m.list = append(slices.Clip(m.list), x)
		model[a] = m
	case 2:
		t.Delete(a)
		delete(model, a)
	case 3:
		r := t.Get(a)
		if _, ok := model[a]; ok != (r != nil) {
			panic("Get disagrees with the model")
		}
		if r != nil {
			r.list = append(r.list, x)
			m := model[a]
			m.list = append(slices.Clip(m.list), x)
			model[a] = m
		}
	}
}

// TestTableMatchesMap drives random inserts, updates and deletes over
// table sizes on both sides of the scan/index threshold and checks the
// table against a map after every operation.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, lines := range []int{3, 8, 40, 300} {
		var tb Table[rec]
		model := map[LineAddr]rec{}
		for step := 0; step < 4000; step++ {
			apply(rng, &tb, model, lines)
			if n := len(tb.Lines(nil)); n != len(model) {
				t.Fatalf("lines=%d step %d: %d lines, model %d", lines, step, n, len(model))
			}
			for a := range model {
				if tb.Peek(a) == nil {
					t.Fatalf("lines=%d step %d: %v missing", lines, step, a)
				}
			}
			if step%97 == 0 && !sameContents(contentsOf(&tb), model) {
				t.Fatalf("lines=%d step %d: contents differ", lines, step)
			}
		}
		got := tb.Lines(nil)
		if !slices.IsSorted(got) || len(got) != len(model) {
			t.Fatalf("lines=%d: Lines() = %v", lines, got)
		}
		tb.Release()
	}
}

// TestTableCOWIsolation drives random interleaved operations on a table
// and its clone, appending to record slices on both sides: after the
// clone, no write on one side may show through the other.
func TestTableCOWIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		lines := []int{4, 12, 60}[round%3]
		var p Table[rec]
		pm := map[LineAddr]rec{}
		for i := 0; i < rng.Intn(3*lines); i++ {
			apply(rng, &p, pm, lines)
		}
		c := p.Clone()
		cm := map[LineAddr]rec{}
		for k, v := range pm {
			cm[k] = rec{v: v.v, list: slices.Clone(v.list)}
		}
		if len(pm) > 0 && (!p.Shared() || !c.Shared()) {
			t.Fatal("store not shared right after Clone")
		}
		for step := 0; step < 40; step++ {
			if rng.Intn(2) == 0 {
				apply(rng, &p, pm, lines)
			} else {
				apply(rng, &c, cm, lines)
			}
			if !sameContents(contentsOf(&p), pm) || !sameContents(contentsOf(&c), cm) {
				t.Fatalf("round %d step %d: a write leaked across the clone", round, step)
			}
		}
		p.Release()
		c.Release()
	}
}

// TestTableReadsDoNotMaterialize: Peek, ForEachRO, Lines and a Get or
// Delete of an absent line keep a clone's store shared.
func TestTableReadsDoNotMaterialize(t *testing.T) {
	var p Table[rec]
	p.Put(ln(1)).v = 1
	c := p.Clone()
	_ = c.Peek(ln(1))
	_ = c.Lines(nil)
	c.ForEachRO(func(LineAddr, *rec) {})
	if c.Get(ln(2)) != nil {
		t.Fatal("Get of an absent line returned a record")
	}
	c.Delete(ln(2))
	if !c.Shared() {
		t.Fatal("a read-only access materialized the store")
	}
	c.Get(ln(1)).v = 2
	if c.Shared() || p.Shared() {
		t.Fatal("a write left the store shared")
	}
	if p.Peek(ln(1)).v != 1 {
		t.Fatal("clone write visible in the parent")
	}
}

// TestTableSlotOrder: a delete moves no other record, and the next
// insert takes the lowest free slot, so walk order is a function of the
// operation history.
func TestTableSlotOrder(t *testing.T) {
	var tb Table[int]
	for i := 0; i < 20; i++ {
		*tb.Put(ln(100 - i)) = i
	}
	keep := tb.Peek(ln(95))
	tb.Delete(ln(98))
	tb.Delete(ln(90))
	if tb.Peek(ln(95)) != keep || *keep != 5 {
		t.Fatal("a delete moved another record")
	}
	*tb.Put(ln(7)) = 77
	var order []LineAddr
	tb.ForEachRO(func(a LineAddr, _ *int) { order = append(order, a) })
	if order[0] != ln(100) || order[1] != ln(99) || order[2] != ln(7) {
		t.Fatalf("insert did not take the lowest free slot: %v", order[:4])
	}
}

// TestTableEmptyAllocatesNothing: every read, clone and release of an
// empty table is free; the first Put allocates the store.
func TestTableEmptyAllocatesNothing(t *testing.T) {
	var tb Table[rec]
	n := testing.AllocsPerRun(100, func() {
		_ = tb.Peek(ln(1))
		_ = tb.Get(ln(1))
		tb.Delete(ln(1))
		tb.ForEachRO(func(LineAddr, *rec) {})
		c := tb.Clone()
		c.Release()
	})
	if n != 0 {
		t.Fatalf("empty table allocates %v per run", n)
	}
}

// TestTableCloneWriteReleaseRecycles: in steady state, clone + write +
// release of a small table reuses pooled stores.
func TestTableCloneWriteReleaseRecycles(t *testing.T) {
	var p Table[rec]
	p.Put(ln(1)).v = 1
	p.Put(ln(2)).v = 2
	n := testing.AllocsPerRun(200, func() {
		c := p.Clone()
		c.Get(ln(1)).v++
		c.Release()
	})
	if n > 0.5 {
		t.Fatalf("clone+write+release allocates %v per run, want ~0 (pooled stores)", n)
	}
}

// TestTableConcurrentClones: the pools are the only state goroutines
// share. Each goroutine owns a parent, clones it, writes the clones
// (materializing, appending to record slices, growing past the scan
// size) and releases them into the shared pools, where another
// goroutine's next store may come from; every parent must read as
// before.
func TestTableConcurrentClones(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var p Table[rec]
			for i := 0; i < 6; i++ {
				r := p.Put(ln(i))
				r.v = i
				r.list = append(r.list, i, i)
			}
			want := contentsOf(&p)
			for i := 0; i < 300; i++ {
				c := p.Clone()
				r := c.Get(ln(i % 6))
				r.v += g
				r.list = append(r.list, g)
				for j := 0; j < i%12; j++ {
					c.Put(ln(100 + j)).v = j
				}
				c.Delete(ln((i + 1) % 6))
				c.Release()
			}
			if !sameContents(contentsOf(&p), want) {
				t.Errorf("goroutine %d: a clone's writes reached the parent", g)
			}
			p.Release()
		}(g)
	}
	wg.Wait()
}
