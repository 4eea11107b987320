package hostproto

import (
	"testing"

	"c3/internal/cpu"
	"c3/internal/fp"
	"c3/internal/msg"
)

func fingerprint(l *L1) uint64 {
	h := fp.New()
	l.Fingerprint(&h, fp.Identity{}, true)
	return h.Sum()
}

// TestFingerprintCoversPayloadAndQueues: two L1s that differ only in a
// valid frame's payload, in the content of a stalled snoop, or in a
// queued op's value hash differently. The L1 keeps no DataValid flag,
// so its payloads must be hashed whatever that flag says.
func TestFingerprintCoversPayloadAndQueues(t *testing.T) {
	build := func(word, src msg.NodeID, val uint64) *L1 {
		l, _, _ := newTestL1(t, MESI)
		e := l.c.Install(lineX)
		e.State = stS
		e.Data.SetWord(0, uint64(word))
		snp := &msg.Msg{Type: msg.SnpData, Addr: lineX + 0x40, Src: src, Dst: l1ID, VNet: msg.VSnp}
		*l.reqs.Put(lineX + 0x40) = reqTBE{addr: lineX + 0x40, stalledSnps: []*msg.Msg{snp},
			ops: []pendingOp{{req: cpu.Request{Kind: cpu.Store, Addr: addrX + 0x40, Val: val, Token: 1}}}}
		return l
	}
	base := fingerprint(build(1, dirID, 7))
	for what, l := range map[string]*L1{
		"frame payload":        build(2, dirID, 7),
		"stalled snoop source": build(1, dirID+5, 7),
		"queued op value":      build(1, dirID, 8),
	} {
		if fingerprint(l) == base {
			t.Errorf("two L1s that differ in their %s hash alike", what)
		}
	}
	if fingerprint(build(1, dirID, 7)) != base {
		t.Error("equal L1s hash differently")
	}
}
