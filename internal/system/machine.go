package system

import (
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

// ParseMachine validates the five machine flags every command shares
// (-local0, -local1, -global, -mcm0, -mcm1), so that a typo is a usage
// error before any run starts. MCM names are read by cpu.ParseMCM
// ("arm"/"weak", "tso"/"x86", "sc", ...).
func ParseMachine(local0, local1, global, mcm0, mcm1 string) (Machine, error) {
	m := Machine{Locals: [2]string{local0, local1}, Global: global}
	if _, ok := ssp.GlobalText(global); !ok {
		return m, fmt.Errorf("unknown -global protocol %q (want %s)", global, strings.Join(ssp.GlobalNames(), "|"))
	}
	for i, name := range m.Locals {
		if _, ok := ssp.LocalText(name); !ok {
			return m, fmt.Errorf("unknown -local%d protocol %q (want %s)", i, name, strings.Join(ssp.LocalNames(), "|"))
		}
	}
	for i, name := range [2]string{mcm0, mcm1} {
		mcm, err := cpu.ParseMCM(name)
		if err != nil {
			return m, fmt.Errorf("-mcm%d: %w", i, err)
		}
		m.MCMs[i] = mcm
	}
	return m, nil
}
