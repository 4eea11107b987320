package cpu

import (
	"c3/internal/fp"
	"c3/internal/mem"
)

// Fingerprint writes the core's microarchitectural state into the model
// checker's state hash, with memory addresses renamed by rn so symmetric
// threads and variables hash identically. The core id is left out: the
// checker hashes cores in canonical slot order. The destination
// register, annotations, and issue breadcrumbs (forwards, warmed) are
// included, since they steer future behavior; sequence numbers and cost
// counters are bookkeeping and stay out.
func (c *Core) Fingerprint(h *fp.Hasher, rn fp.Renamer) {
	h.Bool(c.fetchOK)
	h.Bool(c.srcDone)
	h.Bool(c.finished)
	h.Int(len(c.window))
	for _, u := range c.window {
		h.Int(int(u.in.Kind))
		if u.in.Kind.IsMem() {
			h.Addr(u.in.Addr, rn)
		} else {
			h.Word(uint64(u.in.Addr))
		}
		h.Word(u.in.Val)
		h.Int(u.in.Reg)
		h.Bool(u.in.Acq)
		h.Bool(u.in.Rel)
		h.Bool(u.in.CtrlDep)
		h.Bool(u.issued)
		h.Bool(u.done)
		h.Word(u.val)
		h.Bool(u.forwards)
		h.Bool(u.warmed)
	}
	h.Int(len(c.sb))
	for _, s := range c.sb {
		h.Addr(s.addr, rn)
		h.Word(s.val)
		h.Bool(s.rel)
		h.Bool(s.draining)
	}
	h.Int(c.outstanding)
}

// FutureLines visits the line address of every memory operation the core
// may still perform from in-flight state: window entries (issued or not
// — an issued op can still complete and unblock younger ones) and
// store-buffer entries awaiting drain. Instructions not yet fetched from
// the source are the caller's to account (see SliceSource.FutureLines).
// The model checker's partial-order reduction uses the union to decide
// whether delivering a message can ripple onto other lines.
func (c *Core) FutureLines(visit func(mem.LineAddr)) {
	for _, u := range c.window {
		if u.in.Kind.IsMem() {
			visit(u.in.Addr.Line())
		}
	}
	for _, s := range c.sb {
		visit(s.addr.Line())
	}
}
