package hmesi

import (
	"testing"

	"c3/internal/fp"
	"c3/internal/msg"
)

// TestFingerprintCoversQueues: two directories that differ only in the
// content of a request queued on a busy line hash differently.
func TestFingerprintCoversQueues(t *testing.T) {
	hash := func(src msg.NodeID) uint64 {
		_, d, _, _ := setup(t)
		l := d.line(lineA)
		l.busy = true
		l.queue = []*msg.Msg{{Type: msg.GGetS, Addr: lineA, Src: src, Dst: 100, VNet: msg.VReq}}
		h := fp.New()
		d.Fingerprint(&h, fp.Identity{})
		return h.Sum()
	}
	if hash(1) == hash(2) {
		t.Error("two directories whose queued requests differ hash alike")
	}
}
