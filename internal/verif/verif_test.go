package verif

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"c3/internal/cpu"
	"c3/internal/litmus"
)

func mp(t *testing.T) litmus.Test {
	t.Helper()
	tc, ok := litmus.ByName("MP")
	if !ok {
		t.Fatal("no MP test")
	}
	return tc
}

func TestCheckMPCXL(t *testing.T) {
	rep, err := Check(ModelConfig{
		Test:   mp(t),
		Locals: [2]string{"mesi", "mesi"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:   litmus.SyncFull,
	}, CheckerConfig{MaxStates: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MP/CXL: %d states, %d terminals, %d outcomes, truncated=%v",
		rep.States, rep.Terminals, len(rep.Outcomes), rep.Truncated)
	if rep.Terminals == 0 && !rep.Truncated {
		t.Fatal("no terminal states reached")
	}
}

// TestCheckRejectsRCC: Check returns Build's error for a local protocol
// outside the MESI family, before exploring and without leaking models.
func TestCheckRejectsRCC(t *testing.T) {
	base := ModelsLive()
	_, err := Check(ModelConfig{
		Test:   mp(t),
		Locals: [2]string{"mesi", "rcc"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:   litmus.SyncFull,
	}, CheckerConfig{})
	if err == nil || !strings.Contains(err.Error(), "MESI family") {
		t.Fatalf("err = %v, want the MESI-family error", err)
	}
	if n := ModelsLive(); n != base {
		t.Errorf("%d models leaked", n-base)
	}
}

func byName(t *testing.T, name string) litmus.Test {
	t.Helper()
	tc, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("no %s test", name)
	}
	return tc
}

// TestCheckParallelMatchesSerial: explorations share nothing but the
// pools, so corpus tests explored on concurrent goroutines, as c3check
// -j runs them, report exactly what each reports alone.
func TestCheckParallelMatchesSerial(t *testing.T) {
	names := []string{"MP", "SB", "WRC", "MP+3W"}
	budget := uint64(20_000)
	if testing.Short() {
		budget = 4_000
	}
	ccfg := CheckerConfig{MaxStates: budget}
	want := make([]*Report, len(names))
	for i, name := range names {
		rep, err := Check(wmoCXL(t, name, litmus.SyncFull), ccfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[i] = rep
	}
	got := make([]*Report, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		mcfg := wmoCXL(t, name, litmus.SyncFull)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Check(mcfg, ccfg)
		}()
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s concurrently: %v", name, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent report %+v, alone %+v", name, got[i], want[i])
		}
	}
}

// TestCheckShapesCXL exhaustively verifies the Table IV shapes on the
// CXL global protocol with both homogeneous and mixed MCMs.
func TestCheckShapesCXL(t *testing.T) {
	shapes := []string{"MP", "SB", "LB", "S", "R", "2_2W", "CoRR"}
	if testing.Short() {
		shapes = shapes[:2]
	}
	for _, name := range shapes {
		for _, mcms := range [][2]cpu.MCM{{cpu.WMO, cpu.WMO}, {cpu.TSO, cpu.WMO}} {
			rep, err := Check(ModelConfig{
				Test:   byName(t, name),
				Locals: [2]string{"mesi", "mesi"},
				Global: "cxl",
				MCMs:   mcms,
				Sync:   litmus.SyncFull,
			}, CheckerConfig{MaxStates: 150_000})
			if err != nil {
				t.Fatalf("%s %v: %v", name, mcms, err)
			}
			if rep.Terminals == 0 && !rep.Truncated {
				t.Fatalf("%s %v: no terminals", name, mcms)
			}
			t.Logf("%s %v: %d states, %d outcomes, truncated=%v",
				name, mcms, rep.States, len(rep.Outcomes), rep.Truncated)
		}
	}
}

// TestCheckHeteroProtocols verifies MP and S across MESI/MOESI/MESIF
// cluster pairings (the compound-state machinery differs per pairing).
func TestCheckHeteroProtocols(t *testing.T) {
	pairs := [][2]string{{"mesi", "moesi"}, {"moesi", "mesif"}, {"mesif", "mesi"}}
	for _, p := range pairs {
		for _, name := range []string{"MP", "S"} {
			rep, err := Check(ModelConfig{
				Test:   byName(t, name),
				Locals: p,
				Global: "cxl",
				MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
				Sync:   litmus.SyncFull,
			}, CheckerConfig{MaxStates: 150_000})
			if err != nil {
				t.Fatalf("%s on %v: %v", name, p, err)
			}
			if rep.Terminals == 0 && !rep.Truncated {
				t.Fatalf("%s on %v: no terminals", name, p)
			}
		}
	}
}

// TestCheckHMESI verifies the baseline global protocol too.
func TestCheckHMESI(t *testing.T) {
	for _, name := range []string{"MP", "SB"} {
		rep, err := Check(ModelConfig{
			Test:   byName(t, name),
			Locals: [2]string{"mesi", "mesi"},
			Global: "hmesi",
			MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
			Sync:   litmus.SyncFull,
		}, CheckerConfig{MaxStates: 150_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Terminals == 0 && !rep.Truncated {
			t.Fatalf("%s: no terminals", name)
		}
	}
}

// TestCheckEvictions forces Fig. 7 cross-domain evictions into the
// explored space with a 4-line CXL cache.
func TestCheckEvictions(t *testing.T) {
	rep, err := Check(ModelConfig{
		Test:    byName(t, "MP"),
		Locals:  [2]string{"mesi", "mesi"},
		Global:  "cxl",
		MCMs:    [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:    litmus.SyncFull,
		TinyLLC: true,
	}, CheckerConfig{MaxStates: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Terminals == 0 && !rep.Truncated {
		t.Fatal("no terminals")
	}
}

// TestUnsyncedRelaxedOutcomeReachable: with synchronization stripped the
// checker must find the relaxed outcome among the terminals — evidence
// the exploration is genuinely exhaustive.
func TestUnsyncedRelaxedOutcomeReachable(t *testing.T) {
	tc := byName(t, "MP")
	rep, err := Check(ModelConfig{
		Test:   tc,
		Locals: [2]string{"mesi", "mesi"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:   litmus.SyncNone,
	}, CheckerConfig{MaxStates: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct outcomes and look for the forbidden (relaxed) one.
	found := false
	for o := range rep.Outcomes {
		if o == "1:r0=1 1:r1=0 x=1 y=1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("relaxed MP outcome not among %d terminal outcomes (truncated=%v)",
			len(rep.Outcomes), rep.Truncated)
	}
}

// TestCheckMOESIEvictions: eviction flows explored exhaustively on the
// protocol whose O state makes reclaim nontrivial.
func TestCheckMOESIEvictions(t *testing.T) {
	rep, err := Check(ModelConfig{
		Test:    byName(t, "S"),
		Locals:  [2]string{"moesi", "moesi"},
		Global:  "cxl",
		MCMs:    [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:    litmus.SyncFull,
		TinyLLC: true,
	}, CheckerConfig{MaxStates: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Terminals == 0 && !rep.Truncated {
		t.Fatal("no terminals")
	}
}

// TestCheckCoWW: same-location store ordering verified exhaustively.
func TestCheckCoWW(t *testing.T) {
	rep, err := Check(ModelConfig{
		Test:   byName(t, "CoWW"),
		Locals: [2]string{"mesi", "mesi"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.TSO, cpu.TSO},
		Sync:   litmus.SyncFull,
	}, CheckerConfig{MaxStates: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 1 {
		t.Fatalf("CoWW should have exactly one outcome, got %d", len(rep.Outcomes))
	}
}

// TestCheckWRCBounded: a three-thread causality shape under bounded
// exhaustive search (the state space is larger; the bound keeps CI fast
// while cmd/c3check can run it to exhaustion).
func TestCheckWRCBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("larger exploration")
	}
	rep, err := Check(ModelConfig{
		Test:   byName(t, "WRC"),
		Locals: [2]string{"mesi", "mesi"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:   litmus.SyncFull,
	}, CheckerConfig{MaxStates: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WRC: %d states, %d terminals, truncated=%v", rep.States, rep.Terminals, rep.Truncated)
	if rep.States == 0 {
		t.Fatal("no exploration")
	}
}

// TestCheckIRIWExhaustive: four threads across two clusters — the
// multi-copy-atomicity shape — verified to exhaustion.
func TestCheckIRIWExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("~10s exploration")
	}
	rep, err := Check(ModelConfig{
		Test:   byName(t, "IRIW"),
		Locals: [2]string{"mesi", "mesi"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:   litmus.SyncFull,
	}, CheckerConfig{MaxStates: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Fatalf("IRIW should exhaust within the bound (%d states)", rep.States)
	}
	t.Logf("IRIW: %d states, %d terminal outcomes", rep.States, len(rep.Outcomes))
}
