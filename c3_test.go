package c3_test

import (
	"errors"
	"strings"
	"testing"

	"c3"
)

func TestPublicProtocolLists(t *testing.T) {
	if len(c3.LocalProtocols()) != 4 || len(c3.GlobalProtocols()) != 2 {
		t.Fatalf("protocol lists: %v / %v", c3.LocalProtocols(), c3.GlobalProtocols())
	}
	if len(c3.Workloads()) != 33 {
		t.Fatalf("want 33 workloads, got %d", len(c3.Workloads()))
	}
	if len(c3.LitmusTests()) < 12 {
		t.Fatalf("litmus corpus too small: %d", len(c3.LitmusTests()))
	}
}

func TestGenerateTableAPI(t *testing.T) {
	tab, err := c3.GenerateTable("mesi", "cxl")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Render(), "MESI-CXL") {
		t.Fatal("table render missing pairing name")
	}
	if _, err := c3.GenerateTable("nope", "cxl"); err == nil {
		t.Fatal("unknown local protocol should fail")
	}
	if _, err := c3.GenerateTable("mesi", "nope"); err == nil {
		t.Fatal("unknown global protocol should fail")
	}
}

func TestNewSystemAPI(t *testing.T) {
	s, err := c3.NewSystem(c3.Config{
		Clusters: []c3.Cluster{
			{Protocol: "mesi", MCM: c3.TSO, Cores: 2},
			{Protocol: "moesi", MCM: c3.ARM, Cores: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Proto() != "MESI-CXL-MOESI" {
		t.Fatalf("Proto = %q", s.Proto())
	}
	if s.Raw() == nil {
		t.Fatal("Raw() should expose the underlying system")
	}
	if _, err := c3.NewSystem(c3.Config{}); err == nil {
		t.Fatal("empty config should fail")
	}
}

func TestRunWorkloadAPI(t *testing.T) {
	r, err := c3.RunWorkload("vips", c3.WorkloadConfig{
		CoresPerCluster: 2, OpsScale: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Time == 0 || r.Miss.Ops == 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if _, err := c3.RunWorkload("nope", c3.WorkloadConfig{}); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestRunLitmusAPI(t *testing.T) {
	res, err := c3.RunLitmus("MP", c3.LitmusConfig{
		MCMs: [2]c3.MCM{c3.TSO, c3.ARM}, Iters: 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Forbidden != 0 {
		t.Fatalf("MP violated: %s", res.ForbiddenExample)
	}
	if res.Distinct == 0 || len(res.Outcomes) != res.Distinct {
		t.Fatalf("outcome bookkeeping: %+v", res)
	}
	if _, err := c3.RunLitmus("nope", c3.LitmusConfig{}); err == nil {
		t.Fatal("unknown test should fail")
	}
}

func TestVerifyAPI(t *testing.T) {
	rep, err := c3.Verify("SB", c3.VerifyConfig{MCMs: [2]c3.MCM{c3.TSO, c3.TSO}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States == 0 || rep.Terminals == 0 {
		t.Fatalf("empty verification: %+v", rep)
	}
	if _, err := c3.Verify("nope", c3.VerifyConfig{}); err == nil {
		t.Fatal("unknown test should fail")
	}
	// The checker builds MESI-family clusters only: an RCC cluster, even
	// one no thread runs on (CoWW has a single thread), is a returned
	// error naming the family, not a panic.
	for _, tc := range []struct {
		test   string
		locals [2]string
	}{{"MP", [2]string{"rcc", "mesi"}}, {"CoWW", [2]string{"mesi", "RCC"}}} {
		_, err := c3.Verify(tc.test, c3.VerifyConfig{Locals: tc.locals})
		if err == nil || !strings.Contains(err.Error(), "MESI family") {
			t.Errorf("%s on %v: err = %v, want the MESI-family error", tc.test, tc.locals, err)
		}
	}
}

// TestVerifyWitnessRoundTrip: a violation surfaces as a *VerifyError
// whose witness ReplayWitness re-executes to the identical failure (the
// programmatic form of c3check -witness / -replay).
func TestVerifyWitnessRoundTrip(t *testing.T) {
	cfg := c3.VerifyConfig{Unsynced: true, CheckForbidden: true}
	_, err := c3.Verify("MP", cfg)
	if err == nil {
		t.Fatal("unsynced MP with the forbidden predicate armed must fail")
	}
	var ve *c3.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("error is not a *VerifyError: %v", err)
	}
	if ve.Kind != "forbidden-outcome" || len(ve.Witness) == 0 || len(ve.Witness) > ve.OriginalLen {
		t.Fatalf("bad witness: %+v", ve)
	}
	rr, err := c3.ReplayWitness("MP", cfg, ve.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Kind != ve.Kind || rr.Msg != ve.Msg || len(rr.Steps) != len(ve.Witness) {
		t.Fatalf("replay reproduced %s %q in %d steps, want %s %q in %d",
			rr.Kind, rr.Msg, len(rr.Steps), ve.Kind, ve.Msg, len(ve.Witness))
	}
	// Without CheckForbidden the relaxed run records the skip instead.
	rep, err := c3.Verify("MP", c3.VerifyConfig{Unsynced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ForbiddenSkipped {
		t.Fatal("ForbiddenSkipped not recorded")
	}
}

// TestVerifyViolationCarriesReport: a violation comes back with the
// report of the exploration that found it, so a caller can account for
// the work done (c3check folds it into its run ledger).
func TestVerifyViolationCarriesReport(t *testing.T) {
	rep, err := c3.Verify("MP", c3.VerifyConfig{Unsynced: true, CheckForbidden: true})
	var ve *c3.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want a *VerifyError, got %v", err)
	}
	if rep == nil || rep.States == 0 || rep.Builds == 0 || rep.Clones == 0 {
		t.Fatalf("violation report shows no work: %+v", rep)
	}
}

// TestFig10Shape asserts the headline result at reduced scale: CXL costs
// a few percent on insensitive kernels, tens of percent on hot ones, and
// every combo's geomean slowdown stays modest.
func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rep, err := c3.Fig10(c3.ExpOptions{
		Workloads:       []string{"histogram", "vips", "fft", "barnes"},
		CoresPerCluster: 2, OpsScale: 0.4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, combo := range c3.Fig10Combos() {
		hist, vips := rep.Norm[combo]["histogram"], rep.Norm[combo]["vips"]
		if hist <= vips {
			t.Errorf("%s: histogram (%.3f) should exceed vips (%.3f)", combo, hist, vips)
		}
		if vips > 1.25 {
			t.Errorf("%s: vips slowdown %.3f too large", combo, vips)
		}
		if hist < 1.05 {
			t.Errorf("%s: histogram slowdown %.3f implausibly small", combo, hist)
		}
	}
}

// TestFig9Shape asserts the MCM ordering: ARM <= mixed <= TSO for every
// suite, with a nontrivial TSO penalty.
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rep, err := c3.Fig9(c3.ExpOptions{
		Workloads:       []string{"raytrace", "vips", "kmeans", "histogram"},
		CoresPerCluster: 2, OpsScale: 0.4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range c3.Fig9ProtoCombos() {
		for suite, tso := range rep.Norm[pc]["TSO-TSO"] {
			arm := rep.Norm[pc]["ARM-ARM"][suite]
			mixed := rep.Norm[pc]["ARM-TSO"][suite]
			if !(arm <= mixed*1.05 && mixed <= tso*1.10) {
				t.Errorf("%s/%s: ordering violated arm=%.3f mixed=%.3f tso=%.3f",
					pc, suite, arm, mixed, tso)
			}
			if tso < 1.02 {
				t.Errorf("%s/%s: TSO penalty %.3f implausibly small", pc, suite, tso)
			}
		}
	}
}

// TestFig11Shape asserts the miss-cycle story of Sec. VI-C1: the
// CXL-sensitive kernels' high-latency band grows under CXL while vips
// barely moves.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rep, err := c3.Fig11(c3.ExpOptions{CoresPerCluster: 2, OpsScale: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(w string) float64 {
		base := rep.Breakdown[w]["MESI-MESI-MESI"]
		cxl := rep.Breakdown[w]["MESI-CXL-MESI"]
		return float64(cxl.TotalMissCycles()) / float64(base.TotalMissCycles())
	}
	if hist, vips := ratio("histogram"), ratio("vips"); hist <= vips {
		t.Errorf("miss-cycle growth: histogram %.2f should exceed vips %.2f", hist, vips)
	}
}

func TestTableIVSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("litmus matrix")
	}
	rep, err := c3.TableIV(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllPass() {
		t.Fatalf("matrix failures: %v", rep.Details)
	}
	r := rep.Render()
	if !strings.Contains(r, "MP-sys") || !strings.Contains(r, "ok") {
		t.Fatalf("render malformed:\n%s", r)
	}
}

// TestHybridShape: the extension experiment's headline — moving private
// data to cluster-local memory (Sec. IV-D4) makes the CXL system beat
// the all-remote baseline for private-heavy kernels.
func TestHybridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rep, err := c3.Hybrid(c3.ExpOptions{
		Workloads: []string{"vips", "histogram"}, CoresPerCluster: 2,
		OpsScale: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for w, v := range rep.Overhead {
		if v[1] >= v[0] {
			t.Errorf("%s: hybrid (%.3f) should beat all-remote (%.3f)", w, v[1], v[0])
		}
	}
	if v := rep.Overhead["vips"]; v[1] > 0.7 {
		t.Errorf("vips hybrid should be far below the all-remote baseline, got %.3f", v[1])
	}
	if !strings.Contains(rep.Render(), "hybrid") {
		t.Error("render broken")
	}
}
