package verif

import (
	"c3/internal/cpu"
	"c3/internal/fp"
	"c3/internal/litmus"
	"c3/internal/mem"
	"c3/internal/msg"
)

// This file implements the checker's state fingerprint and the two
// reductions it carries: canonical hashing (states differing only in
// transient bookkeeping merge) and symmetry reduction (states differing
// only by a renaming of interchangeable hosts and line addresses merge).
// Both act purely at fingerprint time — the explored models are
// untouched, so witnesses, invariant messages, and replays always
// describe concrete states.
//
// Soundness of the symmetry group (see DESIGN.md §14): a candidate
// renaming pairs a permutation of threads with a permutation of
// variables, and is admitted only if it is an automorphism of the
// instantiated system —
//
//   - threads permute only within their cluster (clusters may differ in
//     local protocol and MCM, so a cross-cluster swap is not an
//     isomorphism);
//   - pinned threads (any thread holding a register, i.e. with a load or
//     RMW) never move: litmus outcomes key registers by thread index, so
//     permuting a register-bearing thread would relabel outcomes;
//   - per thread t, renaming the variables of t's effective program must
//     reproduce, op for op, the program of the thread whose slot t takes.
//
// The admitted set is closed under composition and inversion (it is the
// automorphism group of the labeled program structure), so taking the
// minimum fingerprint over it picks one canonical representative per
// orbit. Variable permutations (and the invalid-frame dropping in the
// fingerprint) additionally require that distinct variables can
// never contend for a cache set — guaranteed when the test has at most
// 16 variables (the L1 set count; LLC has 64 sets) and the LLC is not
// shrunk by TinyLLC; otherwise variables stay pinned.

// symPerm is one admitted renaming. perms[0] is always the identity.
type symPerm struct {
	sym      *symmetry // line tables the renaming indexes by
	identity bool
	tperm    []int // original thread -> canonical slot
	threadAt []int // canonical slot -> original thread
	vperm    []int // original var index -> canonical var index
	varAt    []int // canonical var index -> original var index
}

// symmetry carries the admitted renaming group plus the line-address
// and node tables the renamings (and the partial-order reduction) index
// by.
type symmetry struct {
	perms    []symPerm
	lineIdx  map[mem.LineAddr]int // variable line -> var index
	varLines []mem.LineAddr       // var index -> line
	vars     []litmus.Var
	nThreads int
	l1Of     []msg.NodeID // thread -> its L1's node id
	// porOK gates the partial-order reduction and the invalid-frame /
	// variable-permutation reductions: false when set conflicts could
	// couple distinct lines (TinyLLC, or more variables than L1 sets).
	porOK bool
}

// maxSymCandidates bounds the renaming candidates enumerated; past it
// the group degenerates to the identity (correct, just unreduced).
const maxSymCandidates = 4096

// newSymmetry computes the admitted renaming group for m's config, with
// the node ids of m's L1s (every build of a config numbers them alike).
func newSymmetry(m *Model) *symmetry {
	mcfg := m.cfg
	t := mcfg.Test
	n := len(t.Threads)
	s := &symmetry{
		nThreads: n,
		vars:     t.Vars,
		lineIdx:  make(map[mem.LineAddr]int, len(t.Vars)),
	}
	for _, t := range m.threads() {
		s.l1Of = append(s.l1Of, t.l1.ID())
	}
	// Programs exactly as Build instantiates them — symmetry must hold
	// on what runs, not on the nominal test.
	lay := litmus.Place(t, mcfg.MCMs, mcfg.Sync)
	for i, a := range lay.Addrs {
		s.varLines = append(s.varLines, a.Line())
		s.lineIdx[a.Line()] = i
	}
	s.porOK = !mcfg.TinyLLC && len(t.Vars) <= 16

	pinned := make([]bool, n)
	for ti, p := range lay.Threads {
		for _, in := range p.Prog {
			if in.Kind == cpu.Load || in.Kind.IsRMW() {
				pinned[ti] = true
				break
			}
		}
	}
	// Free variables may permute: referenced by no pinned thread (a
	// pinned thread's program could never match under the renaming
	// anyway) and only when set conflicts are impossible.
	varFree := make([]bool, len(t.Vars))
	if s.porOK {
		for i := range varFree {
			varFree[i] = true
		}
		for ti, p := range lay.Threads {
			if !pinned[ti] {
				continue
			}
			for _, in := range p.Prog {
				if in.Kind.IsMem() {
					varFree[s.lineIdx[in.Addr.Line()]] = false
				}
			}
		}
	}

	var uc [2][]int // unpinned threads per cluster
	for ti, p := range lay.Threads {
		if !pinned[ti] {
			uc[p.Cluster] = append(uc[p.Cluster], ti)
		}
	}
	var freeV []int
	for i, f := range varFree {
		if f {
			freeV = append(freeV, i)
		}
	}
	if fact(len(uc[0]))*fact(len(uc[1]))*fact(len(freeV)) > maxSymCandidates {
		uc[0], uc[1], freeV = nil, nil, nil
	}

	identPerm := func() symPerm {
		p := symPerm{
			sym:   s,
			tperm: make([]int, n), threadAt: make([]int, n),
			vperm: make([]int, len(t.Vars)), varAt: make([]int, len(t.Vars)),
		}
		for i := 0; i < n; i++ {
			p.tperm[i], p.threadAt[i] = i, i
		}
		for i := range t.Vars {
			p.vperm[i], p.varAt[i] = i, i
		}
		return p
	}
	id := identPerm()
	id.identity = true
	s.perms = append(s.perms, id)

	for _, p0 := range permutations(len(uc[0])) {
		for _, p1 := range permutations(len(uc[1])) {
			for _, pv := range permutations(len(freeV)) {
				cand := identPerm()
				for k, ti := range uc[0] {
					cand.tperm[ti] = uc[0][p0[k]]
				}
				for k, ti := range uc[1] {
					cand.tperm[ti] = uc[1][p1[k]]
				}
				for k, vi := range freeV {
					cand.vperm[vi] = freeV[pv[k]]
				}
				ident := true
				for i, v := range cand.tperm {
					cand.threadAt[v] = i
					if v != i {
						ident = false
					}
				}
				for i, v := range cand.vperm {
					cand.varAt[v] = i
					if v != i {
						ident = false
					}
				}
				if ident {
					continue // already have the identity at perms[0]
				}
				// Admit only automorphisms: thread t's program, with its
				// variables renamed, must equal the program of the thread
				// whose slot it takes.
				valid := true
			check:
				for ti := 0; ti < n; ti++ {
					a, b := lay.Threads[ti].Prog, lay.Threads[cand.tperm[ti]].Prog
					if len(a) != len(b) {
						valid = false
						break
					}
					for oi := range a {
						in := a[oi]
						if in.Kind.IsMem() {
							in.Addr = lay.Addrs[cand.vperm[s.lineIdx[in.Addr.Line()]]]
						}
						if in != b[oi] {
							valid = false
							break check
						}
					}
				}
				if valid {
					s.perms = append(s.perms, cand)
				}
			}
		}
	}
	return s
}

// identityOnly returns the group cut down to the identity renaming: the
// same fingerprint, with no symmetric states folded together.
func (s *symmetry) identityOnly() *symmetry {
	id := *s
	id.perms = s.perms[:1]
	return &id
}

func fact(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// permutations enumerates all permutations of [0,n) deterministically.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	return out
}

// Node implements fp.Renamer: thread t's L1 becomes the L1 of the slot
// t takes; every other node stays put.
func (p *symPerm) Node(id msg.NodeID) msg.NodeID {
	if !p.identity {
		for t, l1 := range p.sym.l1Of {
			if l1 == id {
				return p.sym.l1Of[p.tperm[t]]
			}
		}
	}
	return id
}

// Line implements fp.Renamer: a variable's line becomes the line of the
// variable it renames to; every other line stays put.
func (p *symPerm) Line(a mem.LineAddr) mem.LineAddr {
	if !p.identity {
		if i, ok := p.sym.lineIdx[a]; ok {
			return p.sym.varLines[p.vperm[i]]
		}
	}
	return a
}

// fingerprint hashes the canonical representative of the model's
// symmetry orbit: the minimum state hash over the admitted renaming
// group. The second return is the index in s.perms of the first
// renaming attaining it; a nonzero index means this state folds onto a
// symmetric sibling rather than hashing as its own canonical form. Two
// states with equal hashes and equal indices are equal under the
// identity. Which renaming attains the minimum depends on the hash
// function, so the index does too; which states merge does not.
func (m *Model) fingerprint(s *symmetry) (uint64, int) {
	best := m.fingerprintAs(s, 0)
	ren := 0
	for i := 1; i < len(s.perms); i++ {
		if v := m.fingerprintAs(s, i); v < best {
			best, ren = v, i
		}
	}
	return best, ren
}

// fingerprintAs hashes the model under renaming s.perms[pi]: the hashes
// of the thread groups in renamed slot order, then of the two clusters
// and the home (see group.hash), then the fabric's in-flight messages.
func (m *Model) fingerprintAs(s *symmetry, pi int) uint64 {
	p := &s.perms[pi]
	h := fp.New()
	threads := m.threads()
	for slot := 0; slot < s.nThreads; slot++ {
		h.Word(threads[p.threadAt[slot]].hash(s, pi))
	}
	for _, g := range m.groups[len(threads):] {
		h.Word(g.hash(s, pi))
	}
	m.Fabric.Fingerprint(&h, p)
	return h.Sum()
}

// hash returns the group's state hash under renaming s.perms[pi],
// cached in the group: a group a clone shares with its parent is hashed
// once for both, and a step re-hashes only the group its delivery
// reached. An index names one renaming in every group a configuration
// gets: newSymmetry is deterministic and identityOnly keeps its prefix.
func (g *group) hash(s *symmetry, pi int) uint64 {
	switch n := len(s.perms); {
	case len(g.hashes) >= n:
	case n == 1:
		g.hashes = g.one[:]
	default:
		g.hashes = make([]uint64, n)
	}
	if v := g.hashes[pi]; v != 0 {
		return v
	}
	// Invalid-frame dropping is per-level: L1s have 16 sets, the LLC 64
	// unless TinyLLC shrinks it, so each gate needs set conflicts
	// impossible at that level — for the LLC, exactly porOK.
	h := fp.New()
	g.hashAs(&h, &s.perms[pi], len(s.vars) <= 16, s.porOK)
	v := h.Sum()
	g.hashes[pi] = v
	return v
}

// hashAs writes the group's state under renaming p:
//
//   - components hash through the renaming (node ids in sharer vectors,
//     line addresses);
//   - pure bookkeeping is left out (default directory entries, invalid
//     cache frames where skipL1 or skipLLC says set conflicts are
//     impossible, stale payloads of !DataValid frames, sequence numbers,
//     statistics);
//   - register files and fetch positions are in, so states that differ
//     only in loaded values never merge.
func (g *group) hashAs(h *fp.Hasher, p *symPerm, skipL1, skipLLC bool) {
	switch {
	case g.l1 != nil:
		g.core.Fingerprint(h, p)
		var regs fp.Bag
		g.src.EachReg(func(r int, v uint64) {
			e := fp.New()
			e.Int(r)
			e.Word(v)
			regs.Add(e)
		})
		h.Bag(regs)
		h.Int(g.src.Pos())
		g.l1.Fingerprint(h, p, skipL1)
	case g.c3 != nil:
		g.c3.Fingerprint(h, p, skipLLC)
	default:
		if g.dcoh != nil {
			g.dcoh.Fingerprint(h, p)
		} else {
			g.hdir.Fingerprint(h, p)
		}
		// DRAM hashes per canonical variable slot via Peek, which does
		// not distinguish "line absent" from "line holding zeroes"; reads
		// cannot either.
		lines := p.sym.varLines
		for slot := range lines {
			d := g.dram.Peek(lines[p.varAt[slot]])
			h.Data(&d)
		}
	}
}

// outcomeOrbit returns o followed by its images under every
// non-identity renaming in the group. When the checker merges symmetric
// states it visits only one representative terminal per orbit; recording
// the orbit images keeps Report.Outcomes (and the Forbidden evaluation)
// identical to an unreduced exploration. Register keys are invariant —
// only register-free threads permute — so only variable keys move.
func (s *symmetry) outcomeOrbit(o litmus.Outcome) []litmus.Outcome {
	out := make([]litmus.Outcome, 1, len(s.perms))
	out[0] = o
	for i := 1; i < len(s.perms); i++ {
		p := &s.perms[i]
		no := make(litmus.Outcome, len(o))
		for k, v := range o {
			no[k] = v
		}
		for vi := range s.vars {
			if val, ok := o[string(s.vars[vi])]; ok {
				no[string(s.vars[p.vperm[vi]])] = val
			}
		}
		out = append(out, no)
	}
	return out
}
