package verif

import (
	"fmt"
	"testing"

	"c3/internal/fp"
)

// Every Step in the verif tests runs under two checks. The ownership
// check: the delivery may write only the group that owns its
// destination node, so every other group — possibly shared with the
// model's parent and siblings — must hash the same before and after the
// step. This turns the argument the sleep sets and the shared groups
// rest on (DESIGN §14) into a check on every step the tests take. The
// fabric hash check: once the step quiesces, the fabric's incremental
// hash — cached channel entries and the bag's kept hashes — must equal
// a hash of every in-flight message from scratch, under every renaming
// the fabric keeps hashes under.
func init() { testStepHook = checkStep }

func checkStep(m *Model, gi int) (after func()) {
	owned := checkOwnership(m, gi)
	return func() {
		owned()
		checkFabricHash(m)
	}
}

func checkOwnership(m *Model, gi int) (after func()) {
	id := identityOf(m)
	before := make([]uint64, len(m.groups))
	for j, g := range m.groups {
		before[j] = rawHash(g, id)
	}
	return func() {
		for j, g := range m.groups {
			if j != gi && rawHash(g, id) != before[j] {
				panic(fmt.Sprintf("verif: a delivery to node %d wrote group %d (node %d), which it does not own",
					m.groups[gi].node(), j, g.node()))
			}
		}
	}
}

// checkFabricHash panics unless m's fabric hashes incrementally as it
// does from scratch under each renaming it keeps hashes under (none
// before its first fingerprint).
func checkFabricHash(m *Model) {
	f := &m.Fabric
	if f.sym == nil {
		return
	}
	for pi := range f.sym.perms {
		inc, ref := fp.New(), fp.New()
		f.fingerprint(&inc, f.sym, pi)
		scratchFingerprint(f, &ref, &f.sym.perms[pi])
		if inc.Sum() != ref.Sum() {
			panic(fmt.Sprintf("verif: the fabric's incremental hash %#x under renaming %d differs from its hash from scratch %#x",
				inc.Sum(), pi, ref.Sum()))
		}
	}
}

// scratchFingerprint writes f's in-flight messages into h under rn the
// way ChoiceFabric.fingerprint must, hashing every message afresh: the
// non-empty channels as a bag of entries keyed by their renamed
// endpoints, each queue in FIFO order, then the reorderable bag as a bag
// of messages.
func scratchFingerprint(f *ChoiceFabric, h *fp.Hasher, rn fp.Renamer) {
	var chans fp.Bag
	for i := range f.chans {
		c := &f.chans[i]
		if len(c.q) == 0 {
			continue
		}
		e := fp.New()
		e.Node(c.key.src, rn)
		e.Node(c.key.dst, rn)
		e.Int(int(c.key.vnet))
		e.Int(len(c.q))
		for _, m := range c.q {
			fingerprintMsg(&e, m, rn)
		}
		chans.Add(e)
	}
	h.Bag(chans)
	var bag fp.Bag
	for _, m := range f.bag {
		e := fp.New()
		fingerprintMsg(&e, m, rn)
		bag.Add(e)
	}
	h.Bag(bag)
}

// identityOf returns the identity renaming over m's variable lines,
// which hashes a group without a symmetry group.
func identityOf(m *Model) *symPerm {
	s := &symmetry{}
	p := &symPerm{sym: s, identity: true}
	for i, a := range m.b.addrs {
		s.varLines = append(s.varLines, a.Line())
		p.varAt = append(p.varAt, i)
	}
	return p
}

// rawHash hashes g's whole state, invalid frames included, bypassing
// its hash cache.
func rawHash(g *group, id *symPerm) uint64 {
	h := fp.New()
	g.hashAs(&h, id, false, false)
	return h.Sum()
}

// withoutStepChecks switches both checks off until tb ends, for the
// benchmarks and counted gates that measure Step as it runs outside the
// tests.
func withoutStepChecks(tb testing.TB) {
	hook := testStepHook
	testStepHook = nil
	tb.Cleanup(func() { testStepHook = hook })
}
