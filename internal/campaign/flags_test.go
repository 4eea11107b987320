package campaign

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"c3/internal/cpu"
	"c3/internal/litmus"
	"c3/internal/obs"
)

// TestSweepFlags: one flag line parses into the normalized SoakConfig
// built from the same values — the sweep c3soak and c3serve both run —
// and bad values, repeated rows included, are usage errors before any
// campaign runs.
func TestSweepFlags(t *testing.T) {
	parse := func(args ...string) (litmus.SoakConfig, error) {
		var f SweepFlags
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f.Register(fs)
		if err := fs.Parse(args); err != nil {
			return litmus.SoakConfig{}, err
		}
		return f.Config()
	}
	got, err := parse("-tests", "MP,SB", "-plans", "light; drop=0.02", "-seeds", "1, 2", "-iters", "4",
		"-local1", "moesi", "-mcm0", "x86", "-task-timeout", "2s", "-retries", "1")
	if err != nil {
		t.Fatal(err)
	}
	light, _ := litmus.PlanByName("light")
	drop, err := litmus.ResolvePlan("drop=0.02")
	if err != nil {
		t.Fatal(err)
	}
	want := litmus.SoakConfig{Tests: []string{"MP", "SB"}, Plans: []litmus.NamedPlan{light, drop},
		Seeds: []int64{1, 2}, Iters: 4, Locals: [2]string{"mesi", "moesi"}, Global: "cxl",
		MCMs: [2]cpu.MCM{cpu.TSO, cpu.WMO}, TaskTimeout: 2 * time.Second, Retries: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags parsed to %+v, want %+v", got, want)
	}
	// The defaults are WithDefaults' own.
	got, err = parse()
	if err != nil {
		t.Fatal(err)
	}
	if want := (litmus.SoakConfig{Seeds: []int64{1}, Retries: 2}).WithDefaults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("no flags parsed to %+v, want %+v", got, want)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-resume", "-ledger", ""}, "-resume needs a ledger"},
		{[]string{"-retries", "-1"}, "non-negative"},
		{[]string{"-global", "bogus"}, "-global"},
		{[]string{"-mcm1", "bogus"}, "-mcm1"},
		{[]string{"-seeds", "1,x"}, "bad seed"},
		{[]string{"-plans", "nope=1"}, "fault plan"},
		{[]string{"-tests", "NOPE"}, "unknown litmus test"},
		{[]string{"-tests", "MP", "-plans", "light", "-seeds", "1,1"}, "MP/light/seed1 appears twice"},
		{[]string{"-tests", "MP,MP", "-plans", "light"}, "MP/light/seed1 appears twice"},
		{[]string{"-tests", "MP", "-plans", "light;light"}, "MP/light/seed1 appears twice"},
	} {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestSweepWireRoundTrip: a sweep survives the JSON trip to a worker,
// both through json.Marshal with every run-time field set and through
// the coordinator's /spec. It comes back equal to the sweep with its
// run-time fields zero, so it expands to the same campaigns (labels
// and plans) under the same RowSuffix.
func TestSweepWireRoundTrip(t *testing.T) {
	raw, err := litmus.ResolvePlan("drop=0.02,dup=0.01,delay=0.1,delaymax=200,stall=100:900,retries=8,seed=7,crash=1@2500:40000")
	if err != nil {
		t.Fatal(err)
	}
	sweep := litmus.SoakConfig{
		Tests: litmus.TableIVNames(),
		Plans: append(append(litmus.DefaultPlans(), litmus.CrashPlans()...), raw),
		Seeds: []int64{1, 2}, Iters: 7,
		Locals: [2]string{"moesi", "mesif"}, Global: "hmesi", MCMs: [2]cpu.MCM{cpu.TSO, cpu.WMO},
		TaskTimeout: 1500*time.Millisecond + 250*time.Microsecond, Retries: 3,
	}.WithDefaults()
	want, err := litmus.Campaigns(sweep)
	if err != nil {
		t.Fatal(err)
	}

	run := sweep
	run.Workers, run.Timeout, run.Interrupt = 4, time.Minute, make(chan struct{})
	run.Completed = map[string]litmus.SoakRun{want[0].Label(): {Iters: 7}}
	run.Observer = obs.NewTracker()
	b, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	var direct litmus.SoakConfig
	if err := json.Unmarshal(b, &direct); err != nil {
		t.Fatal(err)
	}

	srv := startTestServer(t, ServerConfig{Sweep: sweep})
	resp, err := http.Get("http://" + srv.Addr() + "/spec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served SpecResponse
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.Suffix != RowSuffix(sweep) || served.Jobs != len(want) {
		t.Errorf("/spec: suffix %q, %d jobs; want %q, %d", served.Suffix, served.Jobs, RowSuffix(sweep), len(want))
	}

	for via, got := range map[string]litmus.SoakConfig{"json.Marshal": direct, "/spec": served.Sweep} {
		if !reflect.DeepEqual(got, sweep) {
			t.Errorf("%s: sweep came back as %+v, want %+v", via, got, sweep)
		}
		if RowSuffix(got) != RowSuffix(sweep) {
			t.Errorf("%s: RowSuffix %q, want %q", via, RowSuffix(got), RowSuffix(sweep))
		}
		camps, err := litmus.Campaigns(got)
		if err != nil {
			t.Fatalf("%s: %v", via, err)
		}
		if len(camps) != len(want) {
			t.Fatalf("%s: %d campaigns, want %d", via, len(camps), len(want))
		}
		for i := range camps {
			if camps[i].Label() != want[i].Label() || !reflect.DeepEqual(camps[i].Plan, want[i].Plan) {
				t.Errorf("%s: campaign %d is %s %+v, want %s %+v", via, i,
					camps[i].Label(), camps[i].Plan, want[i].Label(), want[i].Plan)
			}
		}
	}
}
