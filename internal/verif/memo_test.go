package verif

import (
	"testing"

	"c3/internal/litmus"
	"c3/internal/msg"
)

// TestMemoGate: the transition memo answers deliveries in snapshot
// exploration where no cache set can fill, and nowhere else. It is off
// under ReplayFromRoot and under TinyLLC, whose LLC sets fill while the
// hash leaves their LRU order out, and memory shedding drops it for
// the rest of the exploration. None of this moves the report.
func TestMemoGate(t *testing.T) {
	mcfg := mpCXL(t, litmus.SyncNone)
	base, err := Check(mcfg, CheckerConfig{MaxStates: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	if base.MemoHits == 0 {
		t.Fatal("the memo answered no delivery in snapshot exploration")
	}
	root, err := Check(mcfg, CheckerConfig{MaxStates: 3_000, ReplayFromRoot: true})
	if err != nil {
		t.Fatal(err)
	}
	if root.MemoHits != 0 {
		t.Errorf("replay-from-root: %d memo hits, want 0", root.MemoHits)
	}
	reportsEqual(t, "replay-from-root", base, root)
	shed, err := Check(mcfg, CheckerConfig{MaxStates: 3_000, memBudget: 1, memSampleEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	if shed.MemSheds == 0 || shed.MemoHits*4 > base.MemoHits {
		t.Errorf("shedding %d times left the memo answering %d deliveries of %d",
			shed.MemSheds, shed.MemoHits, base.MemoHits)
	}
	reportsEqual(t, "mem-shed", base, shed)
	tiny := mcfg
	tiny.TinyLLC = true
	rep, err := Check(tiny, CheckerConfig{MaxStates: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MemoHits != 0 {
		t.Errorf("TinyLLC: %d memo hits, want 0", rep.MemoHits)
	}
}

// TestMemoOracleCatchesAWrongEntry: the step hook's memo oracle
// (checkMemoHit) panics on a hit whose recorded group is not what the
// delivery leaves, here the group as it was before the delivery. A
// delivery that leaves its group as it was would pass, so the test
// tries hits until one panics.
func TestMemoOracleCatchesAWrongEntry(t *testing.T) {
	hook := testStepHook
	defer func() { testStepHook = hook }()
	caught := false
	testStepHook = func(m *Model, gi int, mm *msg.Msg, hit bool) func() {
		if hit && !caught {
			mo := m.b.memo
			wrong := mo.table[mo.key(m, gi, mm)]
			wrong.g = m.groups[gi]
			func() {
				defer func() { caught = recover() != nil }()
				checkMemoHit(m, gi, mm, wrong)
			}()
		}
		return hook(m, gi, mm, hit)
	}
	if _, err := Check(mpCXL(t, litmus.SyncFull), CheckerConfig{}); err != nil {
		t.Fatal(err)
	}
	if !caught {
		t.Fatal("no memo hit with a wrong recorded group made the oracle panic")
	}
}
