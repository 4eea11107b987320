package verif

import (
	"fmt"

	"c3/internal/msg"
	"c3/internal/protocol/cxl"
	"c3/internal/protocol/hmesi"
	"c3/internal/protocol/hostproto"
)

func newDCOH(id msg.NodeID, m *Model) *cxl.DCOH {
	d := cxl.New(id, m.K, m.Fabric, m.dram)
	d.Lat = 1
	m.Fabric.Register(id, d)
	return d
}

func newHDir(id msg.NodeID, m *Model) *hmesi.Dir {
	d := hmesi.New(id, m.K, m.Fabric, m.dram)
	d.Lat = 1
	m.Fabric.Register(id, d)
	return d
}

// newL1For instantiates the host cache for a verification thread. The
// checker covers the invalidation-based (MESI-family) protocols; RCC's
// intentionally stale copies make the SWMR invariant inapplicable and
// are covered by the litmus runner instead.
func newL1For(proto string, id, dir msg.NodeID, m *Model) *hostproto.L1 {
	var v hostproto.Variant
	switch proto {
	case "mesi", "MESI":
		v = hostproto.MESI
	case "moesi", "MOESI":
		v = hostproto.MOESI
	case "mesif", "MESIF":
		v = hostproto.MESIF
	default:
		panic(fmt.Sprintf("verif: unsupported local protocol %q", proto))
	}
	cfg := hostproto.Config{Variant: v, SizeBytes: 4096, Ways: 4, HitLatency: 1}
	return hostproto.NewL1(id, dir, m.K, m.Fabric, cfg)
}
