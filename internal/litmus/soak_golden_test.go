package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestSoakReportGolden pins the rendered soak report of Table IV × all
// seven preset plans (the four fault presets and the three crash
// presets) × seeds 1 and 2, at 25 iterations on 2 workers: its row count
// and a SHA-256 of SoakReport.Render(). The report carries every fault
// fate, shim retry, poisoned line, watchdog hang class and crash
// reclamation of the sweep in its distinct/poisoned/crashed/hangs
// columns, so a change that only moves host time or allocation on the
// faulty fabric must leave it bit-identical.
func TestSoakReportGolden(t *testing.T) {
	const (
		wantRows = 98
		wantSum  = "f4da9f324102b01de7badd05d0825eaf295ed91e73b7696488624820706f85c5"
	)
	plans := append(DefaultPlans(), CrashPlans()...)
	rep, err := RunSoak(SoakConfig{Plans: plans, Seeds: []int64{1, 2}, Iters: 25, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); len(rep.Runs) != wantRows || got != wantSum {
		t.Errorf("soak report: %d rows, sha256 %s; want %d rows, sha256 %s\n%s",
			len(rep.Runs), got, wantRows, wantSum, strings.TrimSpace(out))
	}
}
