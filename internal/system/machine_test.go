package system

import (
	"flag"
	"strings"
	"testing"

	"c3/internal/cpu"
)

// TestParseMachine pins the machine flags every command uses: MCM
// aliases resolve the way cpu.ParseMCM reads them, and an unknown name
// in any of the five flags is an error naming that flag.
func TestParseMachine(t *testing.T) {
	for _, tc := range []struct {
		local0, global, mcm0 string
		want                 cpu.MCM
		err                  string
	}{
		{"mesi", "cxl", "x86", cpu.TSO, ""},
		{"mesi", "cxl", "TSO", cpu.TSO, ""},
		{"mesi", "cxl", "weak", cpu.WMO, ""},
		{"mesi", "cxl", "bogus", 0, "-mcm0"},
		{"bogus", "cxl", "arm", 0, "-local0"},
		{"mesi", "bogus", "arm", 0, "-global"},
	} {
		var f MachineFlags
		fs := flag.NewFlagSet("machine", flag.ContinueOnError)
		f.Register(fs)
		if err := fs.Parse([]string{"-local0", tc.local0, "-local1", "moesi", "-global", tc.global, "-mcm0", tc.mcm0, "-mcm1", "sc"}); err != nil {
			t.Fatal(err)
		}
		m, err := f.Machine()
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("-local0 %q -global %q -mcm0 %q: %v, want an error naming %s", tc.local0, tc.global, tc.mcm0, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-mcm0 %q: %v", tc.mcm0, err)
			continue
		}
		if m.MCMs != [2]cpu.MCM{tc.want, cpu.SC} || m.Locals != [2]string{"mesi", "moesi"} || m.Global != "cxl" {
			t.Errorf("-mcm0 %q: %+v, want MCMs [%v SC] on mesi/moesi under cxl", tc.mcm0, m, tc.want)
		}
	}
}
