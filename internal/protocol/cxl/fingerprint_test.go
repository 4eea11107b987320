package cxl

import (
	"testing"

	"c3/internal/fp"
	"c3/internal/msg"
)

func fingerprint(d *DCOH) uint64 {
	h := fp.New()
	d.Fingerprint(&h, fp.Identity{})
	return h.Sum()
}

// TestFingerprintCoversTransactions: two DCOHs that differ only in the
// dirty data an open transaction collected, or in the content of a
// request queued behind it, hash differently.
func TestFingerprintCoversTransactions(t *testing.T) {
	build := func(word uint64, queued msg.NodeID) *DCOH {
		_, _, d, _, _ := setup(t)
		l := d.line(lineA)
		l.cur = tx{req: &msg.Msg{Type: msg.MemRdA, Addr: lineA, Src: 1, Dst: 100, VNet: msg.VReq}, dirty: true}
		l.cur.data.SetWord(0, word)
		l.queue = []*msg.Msg{{Type: msg.MemRdS, Addr: lineA, Src: queued, Dst: 100, VNet: msg.VReq}}
		return d
	}
	base := fingerprint(build(1, 2))
	if fingerprint(build(2, 2)) == base {
		t.Error("two DCOHs whose transactions collected different data hash alike")
	}
	if fingerprint(build(1, 1)) == base {
		t.Error("two DCOHs whose queued requests differ hash alike")
	}
}
