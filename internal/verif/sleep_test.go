package verif

import (
	"errors"
	"reflect"
	"testing"

	"c3/internal/cpu"
	"c3/internal/litmus"
)

// sleepConfig is one machine configuration the sleep-set tests cover.
type sleepConfig struct {
	name  string
	heavy bool // left out of -short and -race runs
	apply func(*ModelConfig, *CheckerConfig)
}

// sleepConfigs: WMO and TSO cores, the H-MESI baseline with MOESI and
// MESIF hosts, a tiny LLC, and unsynchronized programs with the
// forbidden predicate evaluated. Each configuration costs the two tests
// about as much as the WMO one, so -short and the race detector keep
// only that.
var sleepConfigs = []sleepConfig{
	{"wmo", false, func(*ModelConfig, *CheckerConfig) {}},
	{"tso", true, func(m *ModelConfig, _ *CheckerConfig) { m.MCMs = [2]cpu.MCM{cpu.TSO, cpu.TSO} }},
	{"hmesi", true, func(m *ModelConfig, _ *CheckerConfig) {
		m.Global, m.Locals = "hmesi", [2]string{"moesi", "mesif"}
	}},
	{"tiny", true, func(m *ModelConfig, _ *CheckerConfig) { m.TinyLLC = true }},
	{"unsynced", true, func(m *ModelConfig, c *CheckerConfig) {
		m.Sync, c.CheckForbidden = litmus.SyncNone, true
	}},
}

// TestSleepSetsPreserveReports: sleep sets skip only successors the
// visited set already holds, so a run with them reports exactly what a
// run without them does — states, terminals, depth, POR skips,
// truncation, outcomes, and the violation with its minimized witness —
// while cloning no more. Corpus × every sleepConfigs entry, and
// replay-from-root on MP and SB. The state budget
// lets every WMO exploration finish and truncates the largest TSO and
// unsynchronized ones, whose truncation points must agree too.
func TestSleepSetsPreserveReports(t *testing.T) {
	type run struct {
		label string
		mcfg  ModelConfig
		ccfg  CheckerConfig
	}
	var runs []run
	for _, c := range sleepConfigs {
		if c.heavy && (testing.Short() || raceDetector) {
			continue
		}
		for _, lt := range litmus.Tests() {
			mcfg := wmoCXL(t, lt.Name, litmus.SyncFull)
			ccfg := CheckerConfig{MaxStates: 6_000}
			c.apply(&mcfg, &ccfg)
			runs = append(runs, run{c.name + "/" + lt.Name, mcfg, ccfg})
		}
	}
	for _, name := range []string{"MP", "SB"} {
		runs = append(runs, run{"replay-from-root/" + name, wmoCXL(t, name, litmus.SyncFull),
			CheckerConfig{ReplayFromRoot: true}})
	}
	for _, r := range runs {
		ccfg := r.ccfg
		ccfg.sleepOff = true
		off, errOff := Check(r.mcfg, ccfg)
		if off.SleepSkips != 0 {
			t.Errorf("%s: %d sleep skips with sleep sets off", r.label, off.SleepSkips)
		}
		on, errOn := Check(r.mcfg, r.ccfg)
		sameVerdict(t, r.label, errOn, errOff)
		if on.States != off.States || on.Terminals != off.Terminals || on.MaxDepth != off.MaxDepth ||
			on.PORSkips != off.PORSkips || on.Truncated != off.Truncated ||
			!reflect.DeepEqual(on.Outcomes, off.Outcomes) {
			t.Errorf("%s: sleep sets changed the report:\n  on  %+v\n  off %+v", r.label, on, off)
		}
		if on.Clones > off.Clones || on.Builds > off.Builds {
			t.Errorf("%s: sleep sets cost more: %d clones + %d builds, %d + %d without",
				r.label, on.Clones, on.Builds, off.Clones, off.Builds)
		}
	}
}

// sameVerdict fails unless both errors are nil or both are
// counterexamples of one kind, message and minimized path.
func sameVerdict(t *testing.T, label string, a, b error) {
	t.Helper()
	var ca, cb *Counterexample
	okA, okB := errors.As(a, &ca), errors.As(b, &cb)
	switch {
	case a == nil && b == nil:
	case okA && okB:
		if ca.Kind != cb.Kind || ca.Msg != cb.Msg || !reflect.DeepEqual(ca.Path, cb.Path) ||
			ca.OriginalLen != cb.OriginalLen {
			t.Errorf("%s: witnesses differ:\n  on  %v %q %v (from %d)\n  off %v %q %v (from %d)", label,
				ca.Kind, ca.Msg, ca.Path, ca.OriginalLen, cb.Kind, cb.Msg, cb.Path, cb.OriginalLen)
		}
	default:
		t.Fatalf("%s: verdicts differ: %v vs %v", label, a, b)
	}
}

// TestDistinctDestinationDeliveriesCommute checks the independence
// relation the sleep sets rest on. Each corpus test is explored
// unreduced in every sleepConfigs machine, up to commuteCap states; at
// each state, every two enabled deliveries to different nodes must
// reach one identity fingerprint in either order, and each must still
// be enabled, under its name, after the other. Two deliveries to the
// same node are not independent: at least one such pair on different
// lines must reach different states, or the relation could be coarser.
func TestDistinctDestinationDeliveriesCommute(t *testing.T) {
	const commuteCap = 1500
	var pairs, sameDst, sameDstApart int
	for _, c := range sleepConfigs {
		if c.heavy && (testing.Short() || raceDetector) {
			continue
		}
		for _, lt := range litmus.Tests() {
			mcfg := wmoCXL(t, lt.Name, litmus.SyncFull)
			c.apply(&mcfg, &CheckerConfig{})
			p, s, a := commutes(t, c.name+"/"+lt.Name, mcfg, commuteCap)
			pairs, sameDst, sameDstApart = pairs+p, sameDst+s, sameDstApart+a
		}
	}
	t.Logf("%d pairs to different nodes commute; %d of %d pairs to one node on different lines do not",
		pairs, sameDstApart, sameDst)
	if pairs == 0 {
		t.Fatal("no pair of deliveries to different nodes was explored")
	}
	if sameDstApart == 0 {
		t.Error("every pair of deliveries to one node on different lines commuted; the relation is coarser than it needs to be")
	}
}

// commutes explores mcfg breadth-first under the identity renaming, up
// to max states, checking every pair of enabled deliveries at every
// state. It returns the pairs to different nodes, the pairs to one node
// on different lines, and how many of the latter did not commute.
func commutes(t *testing.T, label string, mcfg ModelConfig, max int) (pairs, sameDst, apart int) {
	t.Helper()
	root, err := replay(mcfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sym := newSymmetry(root).identityOnly()
	id := &sym.perms[0]
	hash := func(m *Model) uint64 { h, _ := m.fingerprint(sym); return h }
	// then steps m's copy by the delivery named name, which must be
	// enabled there, and returns the copy's fingerprint.
	then := func(m *Model, name uint64) uint64 {
		c := m.Clone()
		defer c.Release()
		for _, a := range c.Fabric.Enabled() {
			if n, _ := c.Fabric.delivery(a, id); n == name {
				c.Step(a)
				return hash(c)
			}
		}
		t.Fatalf("%s: delivery %#x vanished after another delivery", label, name)
		return 0
	}
	visited := map[uint64]bool{hash(root): true}
	queue := []*Model{root}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		acts := s.Fabric.Enabled()
		kids := make([]*Model, len(acts))
		names := make([]uint64, len(acts))
		for i, a := range acts {
			names[i], _ = s.Fabric.delivery(a, id)
			kids[i] = s.Clone()
			kids[i].Step(a)
		}
		for i := range acts {
			mi := s.Fabric.Peek(acts[i])
			for j := i + 1; j < len(acts); j++ {
				mj := s.Fabric.Peek(acts[j])
				same := then(kids[i], names[j]) == then(kids[j], names[i])
				switch {
				case mi.Dst != mj.Dst:
					pairs++
					if !same {
						t.Errorf("%s: deliveries %v and %v to different nodes do not commute", label, mi, mj)
					}
				case mi.Addr != mj.Addr:
					sameDst++
					if !same {
						apart++
					}
				}
			}
		}
		s.Release()
		for _, k := range kids {
			if h := hash(k); !visited[h] && len(visited) < max {
				visited[h] = true
				queue = append(queue, k)
			} else {
				k.Release()
			}
		}
	}
	return pairs, sameDst, apart
}
