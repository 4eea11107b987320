package gen

import (
	"strings"
	"sync"
	"testing"

	"c3/internal/msg"
	"c3/internal/ssp"
)

func mustTable(t *testing.T, local, global string) *Table {
	t.Helper()
	ls, ok := ssp.Local(local)
	if !ok {
		t.Fatalf("no local spec %q", local)
	}
	gs, ok := ssp.Global(global)
	if !ok {
		t.Fatalf("no global spec %q", global)
	}
	tab, err := Generate(ls, gs)
	if err != nil {
		t.Fatalf("Generate(%s,%s): %v", local, global, err)
	}
	return tab
}

func TestGenerateAllCombinations(t *testing.T) {
	for _, l := range ssp.LocalNames() {
		for _, g := range ssp.GlobalNames() {
			tab := mustTable(t, l, g)
			if len(tab.Entries) == 0 {
				t.Errorf("%s-%s: empty table", l, g)
			}
		}
	}
}

// TestSharedOncePerPair: Shared hands every caller — any spelling of
// the names, any goroutine — the same table per protocol pair, built
// from one parse per embedded spec, and with the content Generate
// synthesizes.
func TestSharedOncePerPair(t *testing.T) {
	const callers = 8
	got := make([]*Table, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local, global := "mesi", "cxl"
			if i%2 == 1 {
				local, global = "MESI", "CXL"
			}
			tab, err := Shared(local, global)
			if err != nil {
				t.Error(err)
			}
			got[i] = tab
		}(i)
	}
	wg.Wait()
	for i, tab := range got {
		if tab != got[0] {
			t.Fatalf("caller %d got a different table", i)
		}
	}
	if got[0].Render() != mustTable(t, "mesi", "cxl").Render() {
		t.Error("shared table differs from a fresh Generate")
	}
	moesi, err := Shared("moesi", "cxl")
	if err != nil {
		t.Fatal(err)
	}
	if moesi == got[0] || moesi.Global != got[0].Global {
		t.Error("pairs with one global spec must differ but share its parse")
	}
	if _, err := Shared("bogus", "cxl"); err == nil {
		t.Error("unknown local protocol should fail")
	}
	if _, err := Shared("mesi", "bogus"); err == nil {
		t.Error("unknown global protocol should fail")
	}
}

func TestRoleMismatchRejected(t *testing.T) {
	l, _ := ssp.Local("mesi")
	g, _ := ssp.Global("cxl")
	if _, err := Generate(g, g); err == nil {
		t.Error("global spec in local position should fail")
	}
	if _, err := Generate(l, l); err == nil {
		t.Error("local spec in global position should fail")
	}
}

// TestTableIIFragment checks the exact rows of the paper's Table II for
// the MESI-CXL pairing.
func TestTableIIFragment(t *testing.T) {
	tab := mustTable(t, "mesi", "cxl")

	// BISnpInv in (M,M): conceptual store, Fwd-GetM to host caches
	// (inv-owner), transient block, ends (I,I).
	e := tab.Lookup(TrigSnpStore, ssp.ClsM, ssp.ClsM)
	if e.XAccess != ssp.AccStore || e.Plan != ssp.PlanInvOwner || e.Next != (Pair{ssp.ClsI, ssp.ClsI}) {
		t.Errorf("BISnpInv@(M,M) = %+v", e)
	}
	if e.Transient == "" {
		t.Error("BISnpInv@(M,M) should pass through a blocking transient")
	}

	// BISnpInv in (I,M): no host involvement, data straight to the CXL
	// directory.
	e = tab.Lookup(TrigSnpStore, ssp.ClsI, ssp.ClsM)
	if e.XAccess != ssp.AccNone || e.Plan != ssp.PlanNone || e.Next != (Pair{ssp.ClsI, ssp.ClsI}) {
		t.Errorf("BISnpInv@(I,M) = %+v", e)
	}

	// BISnpData in (M,M): conceptual load, Fwd-GetS to host caches,
	// ends (S,S) under MESI.
	e = tab.Lookup(TrigSnpLoad, ssp.ClsM, ssp.ClsM)
	if e.XAccess != ssp.AccLoad || e.Plan != ssp.PlanSnpOwner || e.Next != (Pair{ssp.ClsS, ssp.ClsS}) {
		t.Errorf("BISnpData@(M,M) = %+v", e)
	}
}

func TestMOESIKeepsOwnerOnLoadSnoop(t *testing.T) {
	tab := mustTable(t, "moesi", "cxl")
	e := tab.Lookup(TrigSnpLoad, ssp.ClsM, ssp.ClsM)
	if e.Next != (Pair{ssp.ClsO, ssp.ClsS}) {
		t.Errorf("MOESI BISnpData@(M,M) next = %v, want (O,S)", e.Next)
	}
	// The Fig. 3 inconsistency is resolved: (O,S) is a legal, reachable
	// compound state because the delegation wrote the data back.
	if !tab.Reachable[Pair{ssp.ClsO, ssp.ClsS}] {
		t.Error("(O,S) should be reachable for MOESI-CXL")
	}
}

func TestForbiddenStatesPruned(t *testing.T) {
	tab := mustTable(t, "mesi", "cxl")
	want := []Pair{
		{ssp.ClsS, ssp.ClsI},
		{ssp.ClsM, ssp.ClsI},
		{ssp.ClsM, ssp.ClsS},
	}
	for _, p := range want {
		found := false
		for _, f := range tab.Forbidden {
			if f == p {
				found = true
			}
		}
		if !found {
			t.Errorf("%v should be forbidden", p)
		}
		if tab.Reachable[p] {
			t.Errorf("%v must not be reachable", p)
		}
	}
}

func TestRuleIDelegation(t *testing.T) {
	tab := mustTable(t, "mesi", "cxl")

	// GetM with only shared global rights must delegate a store.
	e := tab.Lookup(Trigger("GetM"), ssp.ClsS, ssp.ClsS)
	if e.GlobalOp != GAcqM || e.XAccess != ssp.AccStore {
		t.Errorf("GetM@(S,S) = %+v, want AcqM delegation", e)
	}
	// GetM under global M is satisfiable locally.
	e = tab.Lookup(Trigger("GetM"), ssp.ClsS, ssp.ClsM)
	if e.GlobalOp != GNone || e.Plan != ssp.PlanInvSharers {
		t.Errorf("GetM@(S,M) = %+v, want local inv-sharers", e)
	}
	// GetS on a cold line delegates a load.
	e = tab.Lookup(Trigger("GetS"), ssp.ClsI, ssp.ClsI)
	if e.GlobalOp != GAcqS || e.XAccess != ssp.AccLoad {
		t.Errorf("GetS@(I,I) = %+v, want AcqS delegation", e)
	}
	// Writing under exclusive-clean silently dirties global state.
	e = tab.Lookup(Trigger("GetM"), ssp.ClsI, ssp.ClsE)
	if e.GlobalOp != GNone || e.Next.G != ssp.ClsM {
		t.Errorf("GetM@(I,E) = %+v, want silent E->M", e)
	}
}

func TestGrantEOnlyUnderGlobalExclusivity(t *testing.T) {
	tab := mustTable(t, "mesi", "cxl")
	if e := tab.Lookup(Trigger("GetS"), ssp.ClsI, ssp.ClsE); e.Grant != ssp.GrantE {
		t.Errorf("GetS@(I,E) grant = %v, want E", e.Grant)
	}
	if e := tab.Lookup(Trigger("GetS"), ssp.ClsI, ssp.ClsS); e.Grant != ssp.GrantS {
		t.Errorf("GetS@(I,S) grant = %v, want S (no exclusivity under global S)", e.Grant)
	}
	if e := tab.Lookup(Trigger("GetS"), ssp.ClsS, ssp.ClsM); e.Grant != ssp.GrantS {
		t.Errorf("GetS@(S,M) grant = %v, want S (other sharers exist)", e.Grant)
	}
}

func TestEvictions(t *testing.T) {
	cxl := mustTable(t, "mesi", "cxl")
	// Fig. 7: evicting (M,M) reclaims from the owner, then writes back.
	e := cxl.Lookup(TrigEvict, ssp.ClsM, ssp.ClsM)
	if e.Plan != ssp.PlanInvOwner || e.GlobalOp != GWBDirty || e.XAccess != ssp.AccStore {
		t.Errorf("evict@(M,M) = %+v", e)
	}
	// Clean lines evict silently under CXL...
	e = cxl.Lookup(TrigEvict, ssp.ClsS, ssp.ClsS)
	if e.GlobalOp != GNone {
		t.Errorf("CXL clean evict should be silent, got %+v", e)
	}
	// ...but notify the H-MESI directory.
	hm := mustTable(t, "mesi", "hmesi")
	e = hm.Lookup(TrigEvict, ssp.ClsS, ssp.ClsS)
	if e.GlobalOp != GWBClean {
		t.Errorf("H-MESI clean evict should send GPutS, got %+v", e)
	}
}

func TestMessageBindings(t *testing.T) {
	cxl := mustTable(t, "mesi", "cxl")
	if cxl.AcqSOp != msg.MemRdS || cxl.AcqMOp != msg.MemRdA || cxl.WBDirtyOp != msg.MemWrI {
		t.Errorf("CXL bindings: %v %v %v", cxl.AcqSOp, cxl.AcqMOp, cxl.WBDirtyOp)
	}
	if cxl.SnpAccess[msg.BISnpInv] != ssp.AccStore || cxl.SnpAccess[msg.BISnpData] != ssp.AccLoad {
		t.Errorf("CXL snoop accesses: %v", cxl.SnpAccess)
	}
	hm := mustTable(t, "mesi", "hmesi")
	if hm.AcqSOp != msg.GGetS || hm.AcqMOp != msg.GGetM || hm.WBDirtyOp != msg.GPutM {
		t.Errorf("HMESI bindings: %v %v %v", hm.AcqSOp, hm.AcqMOp, hm.WBDirtyOp)
	}
	if hm.WBCleanOp != msg.GPutS {
		t.Errorf("HMESI clean WB: %v", hm.WBCleanOp)
	}
}

func TestRCCUntrackedSnoops(t *testing.T) {
	tab := mustTable(t, "rcc", "cxl")
	// RCC answers global snoops straight from the CXL cache.
	e := tab.Lookup(TrigSnpStore, ssp.ClsN, ssp.ClsM)
	if e.Plan != ssp.PlanNone || e.Next != (Pair{ssp.ClsN, ssp.ClsI}) {
		t.Errorf("RCC BISnpInv@(NT,M) = %+v", e)
	}
	// WrThrough needs ownership: delegation from (NT, I).
	e = tab.Lookup(Trigger("WrThrough"), ssp.ClsN, ssp.ClsI)
	if e.GlobalOp != GAcqM {
		t.Errorf("RCC WrThrough@(NT,I) = %+v, want AcqM (Fig. 8 flow)", e)
	}
	if len(tab.Forbidden) != 0 {
		t.Errorf("self-invalidating protocol has no forbidden pairs, got %v", tab.Forbidden)
	}
}

func TestReachableClosure(t *testing.T) {
	tab := mustTable(t, "mesi", "cxl")
	for _, p := range []Pair{
		{ssp.ClsI, ssp.ClsI},
		{ssp.ClsS, ssp.ClsS},
		{ssp.ClsM, ssp.ClsM},
		{ssp.ClsS, ssp.ClsE}, // AcqS answered with exclusivity, then GetS
		{ssp.ClsI, ssp.ClsS}, // CXL cache caches a line no L1 holds
	} {
		if !tab.Reachable[p] {
			t.Errorf("%v should be reachable", p)
		}
	}
}

func TestLookupPanicsOnForbidden(t *testing.T) {
	tab := mustTable(t, "mesi", "cxl")
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup of a forbidden state should panic")
		}
	}()
	tab.Lookup(Trigger("GetS"), ssp.ClsM, ssp.ClsI)
}

func TestHasAndRender(t *testing.T) {
	tab := mustTable(t, "mesi", "cxl")
	if !tab.Has(Trigger("GetS"), ssp.ClsI, ssp.ClsI) {
		t.Error("Has should find GetS@(I,I)")
	}
	if tab.Has(Trigger("GetS"), ssp.ClsM, ssp.ClsI) {
		t.Error("Has should not find forbidden states")
	}
	r := tab.Render()
	for _, want := range []string{"X-Access", "MESI-CXL", "Forbidden", "(M,I)"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

func TestGlobalOpString(t *testing.T) {
	if GAcqM.String() != "AcqM" || GWBDirty.String() != "WB" || GNone.String() != "-" {
		t.Error("GlobalOp stringer mismatch")
	}
}

// TestPropertyTableCompleteness: for every generated pairing, every
// reachable compound state must have an entry for every trigger that can
// arrive in it — the "no holes in the compound FSM" property the paper's
// generator guarantees by construction.
func TestPropertyTableCompleteness(t *testing.T) {
	for _, l := range ssp.LocalNames() {
		for _, g := range ssp.GlobalNames() {
			tab := mustTable(t, l, g)
			var reqs []Trigger
			seen := map[Trigger]bool{}
			for k := range tab.Entries {
				if k.Trigger != TrigSnpLoad && k.Trigger != TrigSnpStore &&
					k.Trigger != TrigEvict && !seen[k.Trigger] {
					seen[k.Trigger] = true
					reqs = append(reqs, k.Trigger)
				}
			}
			for pair := range tab.Reachable {
				for _, trig := range reqs {
					if !tab.Has(trig, pair.L, pair.G) {
						t.Errorf("%s-%s: hole at %v for %s", l, g, pair, trig)
					}
				}
				for _, trig := range []Trigger{TrigSnpLoad, TrigSnpStore, TrigEvict} {
					if !tab.Has(trig, pair.L, pair.G) {
						t.Errorf("%s-%s: hole at %v for %s", l, g, pair, trig)
					}
				}
			}
		}
	}
}

// TestPropertyNextStatesLegal: every entry's successor state must itself
// be a legal (non-forbidden) compound state.
func TestPropertyNextStatesLegal(t *testing.T) {
	for _, l := range ssp.LocalNames() {
		for _, g := range ssp.GlobalNames() {
			tab := mustTable(t, l, g)
			forbidden := map[Pair]bool{}
			for _, p := range tab.Forbidden {
				forbidden[p] = true
			}
			for k, e := range tab.Entries {
				if forbidden[e.Next] {
					t.Errorf("%s-%s: %v at %v transitions to forbidden %v",
						l, g, k.Trigger, k.State, e.Next)
				}
			}
		}
	}
}
