package campaign

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"c3/internal/cpu"
)

// TestSweepFlags: one flag line parses into the Spec NewSpec builds from
// the same values — the spec c3soak and c3serve both run — and bad
// values are usage errors before any spec exists.
func TestSweepFlags(t *testing.T) {
	parse := func(args ...string) (*Spec, error) {
		var f SweepFlags
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f.Register(fs)
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		return f.Spec()
	}
	got, err := parse("-tests", "MP,SB", "-plans", "light; drop=0.02", "-seeds", "1, 2", "-iters", "4",
		"-local1", "moesi", "-mcm0", "x86", "-task-timeout", "2s", "-retries", "1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSpec([]string{"MP", "SB"}, []string{"light", "drop=0.02"}, []int64{1, 2}, 4,
		[2]string{"mesi", "moesi"}, "cxl", [2]cpu.MCM{cpu.TSO, cpu.WMO}, 2*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags parsed to %+v, want %+v", got, want)
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
	} {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}
