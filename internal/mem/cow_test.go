package mem

import (
	"math/rand"
	"testing"

	"c3/internal/sim"
)

// contents reads, through the read-only Peek, every line the tests
// write.
func contents(d *DRAM) [6]Data {
	var out [6]Data
	for i := range out {
		out[i] = d.Peek(LineAddr(i * LineBytes))
	}
	return out
}

// TestDRAMCOWIsolation drives random interleaved Pokes on a DRAM and
// its clone: after the clone, no write on one side may show through the
// other's Peek.
func TestDRAMCOWIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 50; round++ {
		k := &sim.Kernel{}
		p := NewDRAM(k, DefaultDRAMConfig())
		for i := 0; i < 4; i++ {
			var d Data
			d.SetWord(0, uint64(rng.Intn(100)))
			p.Poke(LineAddr(i*LineBytes), d)
		}
		c := p.Clone(k)
		if !p.Shared() || !c.Shared() {
			t.Fatal("store not shared right after Clone")
		}
		if contents(p) != contents(c) {
			t.Fatal("clone reads differently from parent")
		}
		for step := 0; step < 16; step++ {
			m, other := p, c
			if rng.Intn(2) == 1 {
				m, other = c, p
			}
			before := contents(other)
			var d Data
			d.SetWord(1, uint64(step+1))
			m.Poke(LineAddr(rng.Intn(6)*LineBytes), d)
			if contents(other) != before {
				t.Fatalf("round %d step %d: Poke leaked to the other DRAM", round, step)
			}
		}
	}
}

// TestDRAMCOWReadsDoNotMaterialize: Peek on a fresh clone must keep the
// store shared; the first write unshares it.
func TestDRAMCOWReadsDoNotMaterialize(t *testing.T) {
	k := &sim.Kernel{}
	p := NewDRAM(k, DefaultDRAMConfig())
	var d Data
	d.SetWord(0, 42)
	p.Poke(0, d)
	c := p.Clone(k)

	_ = contents(c)
	if !c.Shared() {
		t.Fatal("read-only access materialized the store")
	}
	c.Poke(LineAddr(LineBytes), d)
	if c.Shared() || p.Shared() {
		t.Fatal("write left the store shared")
	}
	if p.Peek(LineAddr(LineBytes)) != (Data{}) {
		t.Fatal("clone write visible in parent")
	}
}

// TestDRAMCOWTimedWrite: the timed Write path must also copy-on-write.
func TestDRAMCOWTimedWrite(t *testing.T) {
	k := &sim.Kernel{}
	p := NewDRAM(k, DefaultDRAMConfig())
	c := p.Clone(k)
	var d Data
	d.SetWord(0, 7)
	done := false
	p.Write(0, d, func() { done = true })
	k.Run(nil)
	if !done {
		t.Fatal("write never completed")
	}
	if p.Peek(0) != d {
		t.Fatal("write lost")
	}
	if c.Peek(0) != (Data{}) {
		t.Fatal("timed write leaked to the clone")
	}
}
