package system

import (
	"flag"
	"fmt"
	"strings"

	"c3/internal/cpu"
	"c3/internal/ssp"
)

// Machine names a two-cluster machine the way the commands' flags do:
// each cluster's local protocol and memory model, and the global
// protocol joining them.
type Machine struct {
	Locals [2]string
	Global string
	MCMs   [2]cpu.MCM
}

// MachineFlags are the five machine flags every command shares: -local0,
// -local1, -global, -mcm0 and -mcm1, defaulting to MESI-CXL-MESI under
// Arm/Arm.
type MachineFlags struct {
	m    Machine // the protocol names; MCMs are parsed from mcms
	mcms [2]string
}

// Register defines the five flags on fs.
func (f *MachineFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.m.Locals[0], "local0", "mesi", "cluster 0 protocol")
	fs.StringVar(&f.m.Locals[1], "local1", "mesi", "cluster 1 protocol")
	fs.StringVar(&f.m.Global, "global", "cxl", "global protocol: cxl|hmesi")
	fs.StringVar(&f.mcms[0], "mcm0", "arm", "cluster 0 MCM: arm|tso|sc")
	fs.StringVar(&f.mcms[1], "mcm1", "arm", "cluster 1 MCM: arm|tso|sc")
}

// Machine validates the parsed flags, so that a typo is a usage error
// before any run starts; an error names its flag, and the machine still
// carries the protocol names as given. MCM names are read by
// cpu.ParseMCM ("arm"/"weak", "tso"/"x86", "sc", ...).
func (f *MachineFlags) Machine() (Machine, error) {
	m := f.m
	if _, ok := ssp.GlobalText(m.Global); !ok {
		return m, fmt.Errorf("unknown -global protocol %q (want %s)", m.Global, strings.Join(ssp.GlobalNames(), "|"))
	}
	for i, name := range m.Locals {
		if _, ok := ssp.LocalText(name); !ok {
			return m, fmt.Errorf("unknown -local%d protocol %q (want %s)", i, name, strings.Join(ssp.LocalNames(), "|"))
		}
	}
	for i, name := range f.mcms {
		mcm, err := cpu.ParseMCM(name)
		if err != nil {
			return m, fmt.Errorf("-mcm%d: %w", i, err)
		}
		m.MCMs[i] = mcm
	}
	return m, nil
}
