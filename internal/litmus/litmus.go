// Package litmus provides the litmus-test corpus and runner used for the
// paper's empirical correctness evaluation (Sec. VI-A, Table IV).
//
// Tests are written against named variables (distinct cache lines, as
// herd7 lays them out) with full synchronization. The runner can:
//
//   - refine fences per thread MCM, ArMOR-style: a TSO thread keeps only
//     the store->load fences TSO does not already provide, and drops
//     acquire/release annotations (Sec. VI-A: "litmus tests for the
//     weaker MCM are refined by using ArMOR to remove fences that are no
//     longer required when combining with the stronger MCM");
//   - strip all synchronization, the paper's control: the relaxed
//     outcome must then be observable (on architectures weak enough to
//     produce it), proving the tests do not pass vacuously.
//
// Each iteration runs on a freshly assembled two-cluster system with a
// different fabric-jitter seed and randomized thread start offsets, then
// a collector core reads back final memory values.
package litmus

import (
	"fmt"
	"sort"
	"strings"

	"c3/internal/cpu"
	"c3/internal/mem"
)

// Var names a litmus variable; each maps to its own cache line.
type Var string

// Op is one litmus thread instruction.
type Op struct {
	Kind cpu.Kind
	V    Var
	Val  uint64
	Reg  int
	Acq  bool // acquire annotation (loads)
	Rel  bool // release annotation (stores)
}

// Thread is one litmus thread program.
type Thread []Op

// Outcome maps "<thread>:r<reg>" and final variable names to values.
type Outcome map[string]uint64

// Key builds a register key.
func Key(thread, reg int) string { return fmt.Sprintf("%d:r%d", thread, reg) }

func (o Outcome) String() string {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, o[k]))
	}
	return strings.Join(parts, " ")
}

// Test is one litmus shape.
type Test struct {
	Name    string
	Threads []Thread
	Vars    []Var
	// Forbidden reports whether an outcome violates the compound MCM
	// when the test runs with full synchronization.
	Forbidden func(Outcome) bool
	// Observable reports whether, with all synchronization stripped, the
	// forbidden outcome can be produced when thread i runs under
	// mcms[i]. Encodes which thread's relaxation matters (e.g. SB needs
	// store->load relaxation on both threads, so TSO suffices; MP needs
	// a weakly ordered thread on either side).
	Observable func(mcms []cpu.MCM) bool
}

func weak(m cpu.MCM) bool  { return m == cpu.WMO }
func tsoOK(m cpu.MCM) bool { return m == cpu.TSO || m == cpu.WMO }

// varAddr assigns each variable its own line, away from address zero.
func varAddr(vars []Var, v Var) mem.Addr {
	for i, x := range vars {
		if x == v {
			return mem.Addr(0x40000 + i*mem.LineBytes)
		}
	}
	panic(fmt.Sprintf("litmus: unknown var %q", v))
}

// Fence is a convenience full-barrier op.
func Fence() Op { return Op{Kind: cpu.Fence} }

// St / Ld / StRel / LdAcq build ops tersely.
func St(v Var, val uint64) Op    { return Op{Kind: cpu.Store, V: v, Val: val} }
func StRel(v Var, val uint64) Op { return Op{Kind: cpu.Store, V: v, Val: val, Rel: true} }
func Ld(v Var, reg int) Op       { return Op{Kind: cpu.Load, V: v, Reg: reg} }
func LdAcq(v Var, reg int) Op    { return Op{Kind: cpu.Load, V: v, Reg: reg, Acq: true} }

// Tests returns the full corpus. The first seven are Table IV's set.
func Tests() []Test {
	return []Test{
		{
			// Message passing: the flag must publish the data.
			Name: "MP",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 1), StRel("y", 1)},
				{LdAcq("y", 0), Ld("x", 1)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(1, 0)] == 1 && o[Key(1, 1)] == 0
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[0]) || weak(m[1]) },
		},
		{
			// Store buffering: the one reordering TSO allows.
			Name: "SB",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 1), Fence(), Ld("y", 0)},
				{St("y", 1), Fence(), Ld("x", 0)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(0, 0)] == 0 && o[Key(1, 0)] == 0
			},
			Observable: func(m []cpu.MCM) bool { return tsoOK(m[0]) && tsoOK(m[1]) },
		},
		{
			// Load buffering.
			Name: "LB",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{Ld("x", 0), Fence(), St("y", 1)},
				{Ld("y", 0), Fence(), St("x", 1)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(0, 0)] == 1 && o[Key(1, 0)] == 1
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[0]) || weak(m[1]) },
		},
		{
			// R: write-write order against a racing write + read.
			Name: "R",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 1), Fence(), St("y", 1)},
				{St("y", 2), Fence(), Ld("x", 0)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(1, 0)] == 0 && o["y"] == 2
			},
			Observable: func(m []cpu.MCM) bool { return tsoOK(m[1]) },
		},
		{
			// S: a read ordering a racing write.
			Name: "S",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 2), StRel("y", 1)},
				{LdAcq("y", 0), St("x", 1)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(1, 0)] == 1 && o["x"] == 2
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[0]) || weak(m[1]) },
		},
		{
			// 2+2W: write-order cycle.
			Name: "2_2W",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 1), Fence(), St("y", 2)},
				{St("y", 1), Fence(), St("x", 2)},
			},
			Forbidden: func(o Outcome) bool {
				return o["x"] == 1 && o["y"] == 1
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[0]) || weak(m[1]) },
		},
		{
			// IRIW: independent readers must agree on the write order
			// (multi-copy atomicity).
			Name: "IRIW",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 1)},
				{St("y", 1)},
				{LdAcq("x", 0), Ld("y", 1)},
				{LdAcq("y", 0), Ld("x", 1)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(2, 0)] == 1 && o[Key(2, 1)] == 0 &&
					o[Key(3, 0)] == 1 && o[Key(3, 1)] == 0
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[2]) || weak(m[3]) },
		},
		{
			// CoRR: same-location reads never go backwards — pure
			// coherence; must hold even with no synchronization.
			Name: "CoRR",
			Vars: []Var{"x"},
			Threads: []Thread{
				{St("x", 1)},
				{Ld("x", 0), Ld("x", 1)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(1, 0)] == 1 && o[Key(1, 1)] == 0
			},
			Observable: func(m []cpu.MCM) bool { return false },
		},
		{
			// CoRR2: two readers must agree on the order of same-location
			// writes — pure coherence, like CoRR.
			Name: "CoRR2",
			Vars: []Var{"x"},
			Threads: []Thread{
				{St("x", 1)},
				{St("x", 2)},
				{Ld("x", 0), Ld("x", 1)},
				{Ld("x", 0), Ld("x", 1)},
			},
			Forbidden: func(o Outcome) bool {
				// The coherence order of x is 0, then the write the final
				// value overwrote, then final x; no reader's two loads may
				// go backwards in it.
				rank := func(v uint64) int {
					switch v {
					case 0:
						return 0
					case o["x"]:
						return 2
					}
					return 1
				}
				return rank(o[Key(2, 0)]) > rank(o[Key(2, 1)]) ||
					rank(o[Key(3, 0)]) > rank(o[Key(3, 1)])
			},
			Observable: func(m []cpu.MCM) bool { return false },
		},
		{
			// CoWW: same-location stores retire in program order — the
			// final value must be the later store's, on every model.
			Name: "CoWW",
			Vars: []Var{"x"},
			Threads: []Thread{
				{St("x", 1), St("x", 2)},
			},
			Forbidden:  func(o Outcome) bool { return o["x"] != 2 },
			Observable: func(m []cpu.MCM) bool { return false },
		},
		{
			// WRC: write-to-read causality across three threads.
			Name: "WRC",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 1)},
				{LdAcq("x", 0), StRel("y", 1)},
				{LdAcq("y", 0), Ld("x", 1)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(1, 0)] == 1 && o[Key(2, 0)] == 1 && o[Key(2, 1)] == 0
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[1]) || weak(m[2]) },
		},
		{
			// RWC: read-to-write causality.
			Name: "RWC",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 1)},
				{Ld("x", 0), Fence(), Ld("y", 1)},
				{St("y", 1), Fence(), Ld("x", 0)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(1, 0)] == 1 && o[Key(1, 1)] == 0 && o[Key(2, 0)] == 0
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[1]) || tsoOK(m[2]) },
		},
		{
			// WWC: write-to-write causality.
			Name: "WWC",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 2)},
				{Ld("x", 0), Fence(), St("y", 1)},
				{Ld("y", 0), Fence(), St("x", 1)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(1, 0)] == 2 && o[Key(2, 0)] == 1 && o["x"] == 2
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[1]) || weak(m[2]) },
		},
		{
			// WRW+2W.
			Name: "WRW+2W",
			Vars: []Var{"x", "y"},
			Threads: []Thread{
				{St("x", 1)},
				{Ld("x", 0), Fence(), St("y", 1)},
				{St("y", 2), Fence(), St("x", 2)},
			},
			Forbidden: func(o Outcome) bool {
				// Cycle: x=1 ->rf r(x) ->fence y=1 ->co y=2 ->fence
				// x=2 ->co x=1 (final x==1, final y==2).
				return o[Key(1, 0)] == 1 && o["y"] == 2 && o["x"] == 1
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[1]) || weak(m[2]) },
		},
		{
			// MP+3W: message passing surrounded by three independent
			// single-store writers on fresh variables. The MP core (t0,
			// t1) is unchanged; t2/t4 write z from cluster 0 and t3
			// writes w from cluster 1, so the checker's reduction layer
			// has real structure to exploit — t2 and t4 are
			// interchangeable (same cluster, same program), and the
			// extra stores commute with everything outside their own
			// line. Unreduced, the interleaving space is far beyond the
			// Table IV shapes; it is the model checker's reduction
			// acceptance test, not part of Table IV.
			Name: "MP+3W",
			Vars: []Var{"x", "y", "z", "w"},
			Threads: []Thread{
				{St("x", 1), StRel("y", 1)},
				{LdAcq("y", 0), Ld("x", 1)},
				{St("z", 1)},
				{St("w", 1)},
				{St("z", 1)},
			},
			Forbidden: func(o Outcome) bool {
				return o[Key(1, 0)] == 1 && o[Key(1, 1)] == 0
			},
			Observable: func(m []cpu.MCM) bool { return weak(m[0]) || weak(m[1]) },
		},
	}
}

// ByName finds a test.
func ByName(name string) (Test, bool) {
	for _, t := range Tests() {
		if t.Name == name {
			return t, true
		}
	}
	return Test{}, false
}

// TableIVNames lists the seven tests of Table IV.
func TableIVNames() []string {
	return []string{"2_2W", "IRIW", "LB", "MP", "R", "S", "SB"}
}

// SyncMode selects how much synchronization survives in a run.
type SyncMode uint8

const (
	// SyncFull keeps all fences and annotations (refined per MCM).
	SyncFull SyncMode = iota
	// SyncNone strips everything — the paper's control runs.
	SyncNone
)

// Refine adapts a thread's synchronization to the MCM of the core it
// runs on (ArMOR-style): TSO already provides load-load, load-store and
// store-store order plus acquire/release semantics, so only fences
// separating a store from a later load survive; SC needs nothing.
func Refine(th Thread, m cpu.MCM) Thread {
	if m == cpu.WMO {
		return th
	}
	out := make(Thread, 0, len(th))
	for i, op := range th {
		switch {
		case op.Kind == cpu.Fence:
			if m == cpu.SC {
				continue
			}
			// TSO: keep only store->load fences.
			var prevStore, nextLoad bool
			for j := i - 1; j >= 0; j-- {
				if th[j].Kind.IsMem() {
					prevStore = th[j].Kind.IsWrite()
					break
				}
			}
			for j := i + 1; j < len(th); j++ {
				if th[j].Kind.IsMem() {
					nextLoad = th[j].Kind == cpu.Load
					break
				}
			}
			if prevStore && nextLoad {
				out = append(out, op)
			}
		default:
			op.Acq, op.Rel = false, false // implicit under TSO/SC
			out = append(out, op)
		}
	}
	return out
}

// Strip removes all synchronization.
func Strip(th Thread) Thread {
	out := make(Thread, 0, len(th))
	for _, op := range th {
		if op.Kind == cpu.Fence || op.Kind == cpu.Acquire || op.Kind == cpu.Release {
			continue
		}
		op.Acq, op.Rel = false, false
		out = append(out, op)
	}
	return out
}

// Layout is a litmus test placed on the two-cluster machine that both
// the runner and the model checker build.
type Layout struct {
	// Threads holds each thread's placement, in thread order.
	Threads []Placement
	// Cores counts the thread slots of each cluster.
	Cores [2]int
	// Addrs is each variable's address, in Test.Vars order.
	Addrs []mem.Addr
}

// Placement is one thread's core slot and the program it runs there:
// the thread refined for its cluster's MCM under SyncFull, or stripped
// under SyncNone, as core instructions over Layout.Addrs.
type Placement struct {
	Cluster, Slot int
	Prog          []cpu.Instr
}

// Place lays t out for clusters running mcms: threads go round-robin
// across the clusters (Sec. VI-A), each into its cluster's next core
// slot, and every variable gets its own line.
func Place(t Test, mcms [2]cpu.MCM, sync SyncMode) Layout {
	lay := Layout{Threads: make([]Placement, len(t.Threads)), Addrs: make([]mem.Addr, len(t.Vars))}
	for i, v := range t.Vars {
		lay.Addrs[i] = varAddr(t.Vars, v)
	}
	for i, th := range t.Threads {
		cl := clusterOf(i)
		eff := th
		switch sync {
		case SyncFull:
			eff = Refine(th, mcms[cl])
		case SyncNone:
			eff = Strip(th)
		}
		prog := make([]cpu.Instr, 0, len(eff))
		for _, op := range eff {
			in := cpu.Instr{Kind: op.Kind, Val: op.Val, Reg: op.Reg, Acq: op.Acq, Rel: op.Rel}
			if op.Kind.IsMem() {
				in.Addr = varAddr(t.Vars, op.V)
			}
			prog = append(prog, in)
		}
		lay.Threads[i] = Placement{Cluster: cl, Slot: lay.Cores[cl], Prog: prog}
		lay.Cores[cl]++
	}
	return lay
}

// clusterOf is the round-robin thread -> cluster assignment.
func clusterOf(thread int) int { return thread % 2 }
