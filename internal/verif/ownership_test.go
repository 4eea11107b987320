package verif

import (
	"fmt"
	"testing"

	"c3/internal/fp"
)

// Every Step in the verif tests runs under the ownership check: the
// delivery may write only the group that owns its destination node, so
// every other group — possibly shared with the model's parent and
// siblings — must hash the same before and after the step. This turns
// the argument the sleep sets and the shared groups rest on (DESIGN
// §14) into a check on every step the tests take.
func init() { testStepHook = checkOwnership }

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

// identityOf returns the identity renaming over m's variable lines,
// which hashes a group without a symmetry group.
func identityOf(m *Model) *symPerm {
	s := &symmetry{}
	p := &symPerm{sym: s, identity: true}
	for i, a := range m.addrs {
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

// withoutOwnershipCheck switches the check off until tb ends, for the
// benchmarks and counted gates that measure Step as it runs outside the
// tests.
func withoutOwnershipCheck(tb testing.TB) {
	hook := testStepHook
	testStepHook = nil
	tb.Cleanup(func() { testStepHook = hook })
}
