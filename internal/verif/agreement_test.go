package verif

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"c3/internal/cpu"
	"c3/internal/litmus"
)

// TestRunnerOutcomesCheckerReachable cross-checks the two engines on one
// machine: every outcome the randomized litmus runner observes on
// MESI-CXL-MESI must be among the checker's reachable outcomes, under
// WMO and under TSO with full synchronization.
//
// One known gap is pinned rather than hidden. The checker runs the
// cores to quiescence between deliveries, so a reader's second load of
// a line always hits the copy its first load just filled: no
// invalidation can land between them. The runner issues loads on its
// own timing and does see a reader's two loads of x differ (CoRR,
// CoRR2). There, every missing outcome must have such a reader, and no
// checker outcome may; the test fails if the gap widens or closes.
//
// Under TSO the IRIW and MP+3W explorations (about 42k and 28k states)
// take about 4 s each, more than the rest of the test together, so
// -short and the race detector leave those two out.
func TestRunnerOutcomesCheckerReachable(t *testing.T) {
	for _, mcm := range []cpu.MCM{cpu.WMO, cpu.TSO} {
		for _, lt := range litmus.Tests() {
			if mcm == cpu.TSO && (lt.Name == "IRIW" || lt.Name == "MP+3W") && (testing.Short() || raceDetector) {
				continue
			}
			mcms := [2]cpu.MCM{mcm, mcm}
			res, err := litmus.Run(lt, litmus.RunnerConfig{
				Locals: [2]string{"mesi", "mesi"}, Global: "cxl", MCMs: mcms,
				Iters: 1000, Sync: litmus.SyncFull, BaseSeed: 7,
			})
			if err != nil {
				t.Fatalf("%s %v: runner: %v", lt.Name, mcm, err)
			}
			rep, err := Check(ModelConfig{Test: lt, Locals: [2]string{"mesi", "mesi"}, Global: "cxl",
				MCMs: mcms, Sync: litmus.SyncFull}, CheckerConfig{})
			if err != nil {
				t.Fatalf("%s %v: checker: %v", lt.Name, mcm, err)
			}
			var missing []string
			for o := range res.Outcomes {
				if !rep.Outcomes[o] {
					missing = append(missing, o)
				}
			}
			sort.Strings(missing)
			if lt.Name != "CoRR" && lt.Name != "CoRR2" {
				if len(missing) > 0 {
					t.Errorf("%s %v: runner outcomes the checker never reached: %q", lt.Name, mcm, missing)
				}
				continue
			}
			if len(missing) == 0 {
				t.Errorf("%s %v: the checker now reaches every runner outcome; update the eager-issue note", lt.Name, mcm)
			}
			for _, o := range missing {
				if !differingLoads(lt, o) {
					t.Errorf("%s %v: missing runner outcome %q has no reader whose loads differ", lt.Name, mcm, o)
				}
			}
			for o := range rep.Outcomes {
				if differingLoads(lt, o) {
					t.Errorf("%s %v: checker outcome %q has a reader whose loads differ", lt.Name, mcm, o)
				}
			}
		}
	}
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// differingLoads reports whether, in the rendered outcome o, some
// thread of lt loaded one variable twice and saw two different values.
func differingLoads(lt litmus.Test, o string) bool {
	vals := map[string]string{}
	for _, kv := range strings.Fields(o) {
		k, v, _ := strings.Cut(kv, "=")
		vals[k] = v
	}
	for ti, th := range lt.Threads {
		seen := map[litmus.Var]string{}
		for _, op := range th {
			if op.Kind != cpu.Load {
				continue
			}
			v := vals[strconv.Itoa(ti)+":r"+strconv.Itoa(op.Reg)]
			if prev, ok := seen[op.V]; ok && prev != v {
				return true
			}
			seen[op.V] = v
		}
	}
	return false
}
