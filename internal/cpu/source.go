package cpu

import (
	"slices"

	"c3/internal/mem"
)

// SliceSource is a Source over a fixed program, recording loaded values
// into a register file. It is the execution vehicle for litmus threads.
type SliceSource struct {
	Prog []Instr
	// Regs is the register file, indexed by register number and sized by
	// the program's highest load or RMW destination. A litmus thread's
	// few registers live in buf, so a clone is one allocation.
	Regs []Reg
	buf  [4]Reg
	pos  int
}

// Reg is one register: the value last loaded into it, and whether any
// load has completed into it yet (a register that loaded zero differs
// from one not yet loaded).
type Reg struct {
	Val    uint64
	Loaded bool
}

// NewSliceSource wraps prog.
func NewSliceSource(prog []Instr) *SliceSource {
	n := 0
	for _, in := range prog {
		if in.Kind == Load || in.Kind.IsRMW() {
			n = max(n, in.Reg+1)
		}
	}
	s := &SliceSource{Prog: prog}
	s.Regs = slices.Grow(s.buf[:0], n)[:n]
	return s
}

// Next implements Source.
func (s *SliceSource) Next() (Instr, bool) {
	if s.pos >= len(s.Prog) {
		return Instr{}, false
	}
	in := s.Prog[s.pos]
	s.pos++
	return in, true
}

// Complete implements Source.
func (s *SliceSource) Complete(in Instr, loaded uint64) {
	if in.Kind == Load || in.Kind.IsRMW() {
		s.Regs[in.Reg] = Reg{Val: loaded, Loaded: true}
	}
}

// EachReg calls fn with every loaded register, in register order.
func (s *SliceSource) EachReg(fn func(reg int, val uint64)) {
	for r, v := range s.Regs {
		if v.Loaded {
			fn(r, v.Val)
		}
	}
}

// Pos reports how many instructions have been fetched. The model
// checker's canonical hash includes it (together with Regs) so states
// that differ only in unfetched program tail never merge.
func (s *SliceSource) Pos() int { return s.pos }

// FutureLines visits the line address of every not-yet-fetched memory
// instruction (the complement of Core.FutureLines, which covers fetched
// in-flight state).
func (s *SliceSource) FutureLines(visit func(mem.LineAddr)) {
	for _, in := range s.Prog[s.pos:] {
		if in.Kind.IsMem() {
			visit(in.Addr.Line())
		}
	}
}

// Clone returns a deep copy for model-checker snapshots. The program is
// immutable and shared; the register file and position are copied.
func (s *SliceSource) Clone() *SliceSource {
	n := &SliceSource{Prog: s.Prog, pos: s.pos}
	n.Regs = append(n.buf[:0], s.Regs...)
	return n
}

// FuncSource adapts closures to Source, for workload generators that
// react to loaded values (spin loops, pointer chasing).
type FuncSource struct {
	NextFn     func() (Instr, bool)
	CompleteFn func(in Instr, loaded uint64)
}

// Next implements Source.
func (f *FuncSource) Next() (Instr, bool) { return f.NextFn() }

// Complete implements Source.
func (f *FuncSource) Complete(in Instr, loaded uint64) {
	if f.CompleteFn != nil {
		f.CompleteFn(in, loaded)
	}
}
