package mem

import "c3/internal/sim"

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

// DRAM is a latency/bandwidth model of the memory device, plus the
// authoritative storage for line data not currently owned by any cache.
type DRAM struct {
	k   *sim.Kernel
	cfg DRAMConfig
	// lines holds every line written so far, shared copy-on-write with
	// clones (see Table).
	lines Table[Data]
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
	return &DRAM{k: k, cfg: cfg}
}

// Clone returns a copy of the device attached to kernel k, for
// model-checker state snapshots. The line store is shared copy-on-write;
// a write on either side materializes a private copy. In-flight accesses
// live as kernel events and must have drained before cloning (the
// checker snapshots only quiescent states).
func (d *DRAM) Clone(k *sim.Kernel) *DRAM {
	return &DRAM{
		k: k, cfg: d.cfg, lines: d.lines.Clone(),
		busyUntil: d.busyUntil, Reads: d.Reads, Writes: d.Writes,
	}
}

// Release drops the DRAM's reference to its store; the DRAM must not be
// used afterwards. Optional — unreleased stores are garbage collected.
func (d *DRAM) Release() { d.lines.Release() }

// Shared reports whether the store is currently shared with a clone. For
// tests.
func (d *DRAM) Shared() bool { return d.lines.Shared() }

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
		done(d.Peek(addr))
	})
}

// Write stores a line; done (may be nil) is called when the access
// completes.
func (d *DRAM) Write(addr LineAddr, data Data, done func()) {
	t := d.schedule()
	d.k.Schedule(t, func() {
		d.Writes++
		*d.lines.Put(addr) = data
		if done != nil {
			done()
		}
	})
}

// Peek returns the current stored value without timing, for invariant
// checks and test assertions.
func (d *DRAM) Peek(addr LineAddr) Data {
	if p := d.lines.Peek(addr); p != nil {
		return *p
	}
	return Data{}
}

// Poke sets memory contents directly, for test/bench initialization.
func (d *DRAM) Poke(addr LineAddr, data Data) { *d.lines.Put(addr) = data }
