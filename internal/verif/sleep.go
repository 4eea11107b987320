package verif

import (
	"c3/internal/fp"
	"c3/internal/msg"
)

// Sleep sets (Godefroid, Partial-Order Methods for the Verification of
// Concurrent Systems, 1996): a delivery whose successor a sibling
// already generated is neither cloned nor stepped. They cut transitions,
// not states — every skipped successor is one the visited set already
// holds, so States, Terminals, outcomes and verdicts are those of the
// unslept exploration; only Clones (and the observed SymmetryMerges)
// fall.
//
// Independence is "the two messages have different Dst". A delivery runs
// only the receiving node's component — a host L1 with its core and
// program source, a C3 with its LLC, or the directory with DRAM — plus
// the kernel events that component schedules, and it sends only onto
// channels whose source is that node or into the reorderable bag, which
// the fingerprint hashes as a multiset. Two deliveries to different
// nodes therefore touch disjoint state and disjoint FIFOs, and both
// orders reach the same fingerprint
// (TestDistinctDestinationDeliveriesCommute checks every such pair on
// the states it explores). Two deliveries to one node do not commute
// even on different lines: the node's sends can land in one shared FIFO
// in either order. Any future checker action that is not a delivery — a
// crash, or a core issuing on its own — must count as dependent on
// every delivery.
//
// A frontier entry carries promises (t, via, need): "this state·t equals
// via·need", where via is an entry admitted before this one. BFS pops
// via first, and once via's expansion has recorded generating need —
// its successor admitted, found visited, or itself asleep — this
// state·t is visited, so t is put to sleep. A promise whose via did not
// cover need (POR expanded another delivery there) is dropped and t is
// generated. Promises come from the popped state's deliveries whose
// successor is a known entry (generated siblings, POR probes and asleep
// deliveries alike): if x·a_j is entry w and a_i goes to another node,
// the child x·a_i gets (a_j, w, a_i), because x·a_i·a_j = x·a_j·a_i =
// w·a_i.
//
// A successor that folds onto a visited state names that state's entry
// only when both attained their fingerprint under the same renaming
// index — then they are equal under the identity, and deliveries named
// in one are the same deliveries in the other. A fold through another
// renaming leaves the successor's entry unknown: it still counts as
// generated, but seeds no promise.

// promise: delivering t at the entry holding it reaches the state that
// delivering need reaches at entry via.
type promise struct {
	t, need uint64
	via     int
}

// edge is one delivery an expanded entry covered: its name and the
// entry holding exactly its successor's state (-1 when none is known).
type edge struct {
	name  uint64
	child int
}

// node is the sleep-set record of one admitted state, indexed by entry
// id (admission order). Every expansion covers at least one delivery,
// so first == end means not expanded yet. The fields are int32 to keep
// the record at 12 bytes: the renaming group has at most 4096 members,
// and the edge arena would need 32 GiB before an offset overflowed.
type node struct {
	ren        int32 // renaming index that attained its fingerprint
	first, end int32 // its edges in sleepSets.edges
}

// slot is what one expansion tracks of one enabled delivery.
type slot struct {
	name    uint64
	dst     msg.NodeID
	child   int  // entry holding the successor's state, -1 if unknown
	covered bool // the successor is known to be visited
}

// sleepSets is the checker's sleep-set bookkeeping: one record per
// admitted state, one edge arena, the promises of the frontier in
// frontier order, and buffers reused across expansions.
type sleepSets struct {
	on    bool
	ident fp.Renamer // names bag deliveries
	nodes []node
	edges []edge
	queue []promise
	slots []slot
}

func newSleepSets(on bool, sym *symmetry) *sleepSets {
	return &sleepSets{on: on, ident: &sym.perms[0]}
}

// admitted records a new state whose fingerprint renaming ren attained
// and returns its entry id.
func (z *sleepSets) admitted(ren int) int {
	z.nodes = append(z.nodes, node{ren: int32(ren)})
	return len(z.nodes) - 1
}

// folded returns the entry holding exactly a successor that hashed onto
// visited entry e under renaming ren, or -1 if that is not known.
func (z *sleepSets) folded(e, ren int) int {
	if int(z.nodes[e].ren) == ren {
		return e
	}
	return -1
}

// pop returns the n promises of the frontier entry being popped.
func (z *sleepSets) pop(n int) []promise {
	ps := z.queue[:n:n]
	z.queue = z.queue[n:]
	return ps
}

// wake names acts into fresh slots and puts to sleep (covers) every
// delivery one of ps proves already visited. It returns how many fell
// asleep.
func (z *sleepSets) wake(f *ChoiceFabric, acts []Action, ps []promise) int {
	z.slots = z.slots[:0]
	for _, a := range acts {
		s := slot{child: -1}
		if z.on {
			s.name, s.dst = f.delivery(a, z.ident)
		}
		z.slots = append(z.slots, s)
	}
	asleep := 0
	for _, p := range ps {
		v := z.nodes[p.via]
		child, ok := -1, false
		for _, e := range z.edges[v.first:v.end] {
			if e.name == p.need {
				child, ok = e.child, true
				break
			}
		}
		if !ok {
			continue
		}
		// Equal bag messages share a name and a successor state, so the
		// promise covers each copy.
		for i := range z.slots {
			if s := &z.slots[i]; s.name == p.t && !s.covered {
				s.covered, s.child = true, child
				asleep++
			}
		}
	}
	return asleep
}

// cover records that delivery ai's successor is visited, held by entry
// child (-1 if unknown).
func (z *sleepSets) cover(ai, child int) {
	z.slots[ai].covered, z.slots[ai].child = true, child
}

// close records what entry x's expansion covered and hands its new
// children — the frontier entries its expansion pushed, in order — their
// promises.
func (z *sleepSets) close(x int, kids []frontierEntry) {
	if !z.on {
		return
	}
	n := &z.nodes[x]
	n.first = int32(len(z.edges))
	for _, s := range z.slots {
		if s.covered {
			z.edges = append(z.edges, edge{s.name, s.child})
		}
	}
	n.end = int32(len(z.edges))
	for i := range kids {
		k := &kids[i]
		own := z.slots[k.ai] // the delivery that made k, from its trail
		for _, s := range z.slots {
			// via must be admitted before k (so BFS expands it first),
			// and the two deliveries must go to different nodes.
			if s.child >= 0 && s.child < k.id && s.dst != own.dst {
				z.queue = append(z.queue, promise{t: s.name, via: s.child, need: own.name})
				k.promises++
			}
		}
	}
}
