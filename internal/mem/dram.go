package mem

import (
	"sync/atomic"

	"c3/internal/sim"
)

// DRAMConfig describes the memory device backing the CXL pool
// (Table III: DDR5, 4400 MT/s, 1 channel, 10 ns device latency).
type DRAMConfig struct {
	// AccessLatency is the fixed device access latency.
	AccessLatency sim.Time
	// BytesPerCycle is the channel bandwidth; a request occupies the
	// channel for LineBytes/BytesPerCycle cycles, serializing bursts.
	BytesPerCycle float64
}

// DefaultDRAMConfig matches Table III: 10 ns access, one DDR5-4400
// channel (4400 MT/s x 8 B = 35.2 GB/s; at 2 GHz that is 17.6 B/cycle).
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{AccessLatency: sim.NS(10), BytesPerCycle: 17.6}
}

// dramStore is the refcounted line store shared copy-on-write between a
// DRAM and its clones: a clone shares the map and bumps refs; the first
// write on either side copies it. refs is the only cross-goroutine state
// (concurrent Clones of one parent), so the scheme is race-free while
// each model stays single-goroutine-owned.
type dramStore struct {
	refs atomic.Int32
	m    map[LineAddr]Data
}

func newDramStore(n int) *dramStore {
	s := &dramStore{m: make(map[LineAddr]Data, n)}
	s.refs.Store(1)
	return s
}

// DRAM is a latency/bandwidth model of the memory device, plus the
// authoritative storage for line data not currently owned by any cache.
type DRAM struct {
	k     *sim.Kernel
	cfg   DRAMConfig
	store *dramStore
	// busyUntil models single-channel serialization.
	busyUntil sim.Time

	// Reads and Writes count completed accesses, for stats.
	Reads, Writes uint64
}

// NewDRAM returns a DRAM attached to kernel k. Unwritten lines read as
// zero, like freshly initialized memory.
func NewDRAM(k *sim.Kernel, cfg DRAMConfig) *DRAM {
	if cfg.BytesPerCycle <= 0 {
		cfg.BytesPerCycle = 17.6
	}
	return &DRAM{k: k, cfg: cfg, store: newDramStore(0)}
}

// Clone returns a copy of the device attached to kernel k, for
// model-checker state snapshots. The line store is shared copy-on-write;
// a write on either side materializes a private map. In-flight accesses
// live as kernel events and must have drained before cloning (the
// checker snapshots only quiescent states).
func (d *DRAM) Clone(k *sim.Kernel) *DRAM {
	d.store.refs.Add(1)
	return &DRAM{
		k: k, cfg: d.cfg, store: d.store,
		busyUntil: d.busyUntil, Reads: d.Reads, Writes: d.Writes,
	}
}

// materialize gives the DRAM a private store before a write; with a sole
// reference (the no-clone fast path) it costs one atomic load.
func (d *DRAM) materialize() {
	s := d.store
	if s.refs.Load() == 1 {
		return
	}
	ns := newDramStore(len(s.m))
	for a, v := range s.m {
		ns.m[a] = v
	}
	d.store = ns
	s.refs.Add(-1)
}

// Release drops the DRAM's reference to its store; the DRAM must not be
// used afterwards. Optional — unreleased stores are garbage collected.
func (d *DRAM) Release() {
	if d.store != nil {
		d.store.refs.Add(-1)
		d.store = nil
	}
}

// Shared reports whether the store is currently shared with a clone. For
// tests.
func (d *DRAM) Shared() bool { return d.store.refs.Load() > 1 }

// occupancy is the channel time one line transfer occupies.
func (d *DRAM) occupancy() sim.Time {
	c := sim.Time(float64(LineBytes) / d.cfg.BytesPerCycle)
	if c == 0 {
		c = 1
	}
	return c
}

// schedule reserves the channel and returns the completion time.
func (d *DRAM) schedule() sim.Time {
	start := d.k.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + d.occupancy()
	return d.busyUntil + d.cfg.AccessLatency
}

// Read fetches a line; done is called with the data when the access
// completes.
func (d *DRAM) Read(addr LineAddr, done func(Data)) {
	t := d.schedule()
	d.k.Schedule(t, func() {
		d.Reads++
		done(d.store.m[addr])
	})
}

// Write stores a line; done (may be nil) is called when the access
// completes.
func (d *DRAM) Write(addr LineAddr, data Data, done func()) {
	t := d.schedule()
	d.k.Schedule(t, func() {
		d.Writes++
		d.materialize()
		d.store.m[addr] = data
		if done != nil {
			done()
		}
	})
}

// Peek returns the current stored value without timing, for invariant
// checks and test assertions.
func (d *DRAM) Peek(addr LineAddr) Data { return d.store.m[addr] }

// Poke sets memory contents directly, for test/bench initialization.
func (d *DRAM) Poke(addr LineAddr, data Data) {
	d.materialize()
	d.store.m[addr] = data
}
