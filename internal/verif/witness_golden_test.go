package verif

import (
	"errors"
	"reflect"
	"testing"

	"c3/internal/litmus"
)

// witnessGolden is one pinned counterexample: the checker's verdict on
// a corpus test in one configuration, with its minimized witness.
type witnessGolden struct {
	config, test string
	kind         ViolationKind
	msg          string
	path         string // FormatWitness rendering
	originalLen  int
}

// witnessGoldens pins every witness the checker prints on the corpus:
// the twelve tests whose forbidden outcome becomes reachable once
// synchronization is stripped ("unsynced", with CheckForbidden), and
// the six that trip SWMR on the H-MESI baseline's IS^D_I race
// ("hmesi"). MESI hosts, WMO cores, default budgets, one worker.
var witnessGoldens = []witnessGolden{
	{"unsynced", "MP", VForbidden, "1:r0=1 1:r1=0 x=1 y=1", "0,0,0,0,1,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 26},
	{"unsynced", "SB", VForbidden, "0:r0=0 1:r0=0 x=1 y=1", "0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 24},
	{"unsynced", "LB", VForbidden, "0:r0=1 1:r0=1 x=1 y=1", "0,0,0,0,1,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 28},
	{"unsynced", "S", VForbidden, "1:r0=1 x=2 y=1", "0,0,0,0,1,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 28},
	{"unsynced", "R", VForbidden, "1:r0=0 x=1 y=2", "0,0,0,0,1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 26},
	{"unsynced", "2_2W", VForbidden, "x=1 y=1", "0,0,0,0,1,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 28},
	{"unsynced", "IRIW", VForbidden, "2:r0=1 2:r1=0 3:r0=1 3:r1=0 x=1 y=1", "0,0,0,0,0,0,1,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 32},
	{"unsynced", "WRC", VForbidden, "1:r0=1 2:r0=1 2:r1=0 x=1 y=1", "1,1,0,0,0,1,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 32},
	{"unsynced", "RWC", VForbidden, "1:r0=1 1:r1=0 2:r0=0 x=1 y=1", "1,0,0,0,0,0,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 30},
	{"unsynced", "WWC", VForbidden, "1:r0=2 2:r0=1 x=2 y=1", "1,1,0,0,0,1,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 32},
	{"unsynced", "WRW+2W", VForbidden, "1:r0=1 x=1 y=2", "1,1,0,0,0,1,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 32},
	{"unsynced", "MP+3W", VForbidden, "1:r0=1 1:r1=0 w=1 x=1 y=1 z=1", "4,4,0,3,0,0,0,0,3,0,0,0,0,0,0,0,1,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", 38},
	{"hmesi", "IRIW", VInvariant, "verif: SWMR violated on 0x40000: writer with 1 readers", "1,0,1,1,2,1,1,2,2,2,0,0,0,0,0,3,3,0,3,0,0,0,0,0,0", 25},
	{"hmesi", "CoRR2", VInvariant, "verif: SWMR violated on 0x40000: writer with 1 readers", "1,0,1,1,2,2,0,0,0,0,2,2,0,2,0,0,0,0,0,0", 20},
	{"hmesi", "WRC", VInvariant, "verif: SWMR violated on 0x40000: writer with 1 readers", "1,1,1,0,0,1,0,1,1,1,0,0,0,0,1,1,0,1,0,0,0,0,0,0", 24},
	{"hmesi", "RWC", VInvariant, "verif: SWMR violated on 0x40000: writer with 1 readers", "1,1,1,0,0,1,0,1,1,1,0,0,0,0,1,1,0,1,0,0,0,0,0,0", 24},
	{"hmesi", "WWC", VInvariant, "verif: SWMR violated on 0x40000: writer with 1 readers", "0,0,0,0,0,0,0,0,0,1,1,0,0,1,1,1,0,1,0,0,0,0,0,0", 24},
	{"hmesi", "WRW+2W", VInvariant, "verif: SWMR violated on 0x40000: writer with 1 readers", "0,0,0,0,0,0,0,0,0,1,1,0,0,1,1,1,0,1,0,0,0,0,0,0", 24},
}

// goldenConfig returns the model and checker configuration a golden
// was recorded under.
func goldenConfig(t testing.TB, g witnessGolden) (ModelConfig, CheckerConfig) {
	mcfg := wmoCXL(t, g.test, litmus.SyncFull)
	ccfg := CheckerConfig{}
	switch g.config {
	case "unsynced":
		mcfg.Sync = litmus.SyncNone
		ccfg.CheckForbidden = true
	case "hmesi":
		mcfg.Global = "hmesi"
	default:
		t.Fatalf("unknown golden config %q", g.config)
	}
	return mcfg, ccfg
}

// TestWitnessGoldens pins each corpus counterexample: its kind, its
// message, its minimized path and the path length before minimization.
// A change to exploration order, the end-state verdict or the minimizer
// moves one of these. IRIW and MP+3W take seconds each, so -short and
// the race detector leave them out.
func TestWitnessGoldens(t *testing.T) {
	for _, g := range witnessGoldens {
		t.Run(g.config+"/"+g.test, func(t *testing.T) {
			if (g.test == "IRIW" || g.test == "MP+3W") && (testing.Short() || raceDetector) {
				t.Skip("seconds-long exploration")
			}
			mcfg, ccfg := goldenConfig(t, g)
			_, err := Check(mcfg, ccfg)
			var cex *Counterexample
			if !errors.As(err, &cex) {
				t.Fatalf("want a counterexample, got %v", err)
			}
			got := witnessGolden{g.config, g.test, cex.Kind, cex.Msg, FormatWitness(cex.Path), cex.OriginalLen}
			if got != g {
				t.Errorf("got  %+v\nwant %+v", got, g)
			}
		})
	}
}

// FuzzParseWitness: the witness decoder never panics, and any path it
// accepts renders through FormatWitness to a string that decodes to the
// same path.
func FuzzParseWitness(f *testing.F) {
	for _, g := range witnessGoldens {
		f.Add(g.path)
	}
	f.Add("")
	f.Add(" 1, 0 ,,2,")
	f.Add("65535,65536")
	f.Add("-1")
	f.Fuzz(func(t *testing.T, s string) {
		path, err := ParseWitness(s)
		if err != nil {
			return
		}
		again, err := ParseWitness(FormatWitness(path))
		if err != nil {
			t.Fatalf("%q: rendering %q does not decode: %v", s, FormatWitness(path), err)
		}
		if !reflect.DeepEqual(path, again) {
			t.Fatalf("%q: decoded %v, round trip gave %v", s, path, again)
		}
	})
}
