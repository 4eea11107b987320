package core

import (
	"testing"

	"c3/internal/fp"
	"c3/internal/msg"
)

func fingerprint(c *C3) uint64 {
	h := fp.New()
	c.Fingerprint(&h, fp.Identity{}, true)
	return h.Sum()
}

// TestFingerprintCoversTBEs: two C3s that differ only in one flag of a
// line's TBE, or in the content of a message it stalled, hash
// differently.
func TestFingerprintCoversTBEs(t *testing.T) {
	build := func(edit func(*tbe)) *C3 {
		c, _, _ := newC3(t, "mesi", "cxl")
		req := &msg.Msg{Type: msg.GetS, Addr: lineX, Src: l1A, Dst: c3ID, VNet: msg.VReq}
		tb := c.tbes.Put(lineX)
		*tb = tbe{addr: lineX, kind: tLocal, ph: phGlobal, req: req,
			stalled: []*msg.Msg{{Type: msg.GetM, Addr: lineX, Src: l1B, Dst: c3ID, VNet: msg.VReq}}}
		edit(tb)
		return c
	}
	base := fingerprint(build(func(*tbe) {}))
	for what, edit := range map[string]func(*tbe){
		"absorbDirty": func(t *tbe) { t.absorbDirty = true },
		"haveData":    func(t *tbe) { t.haveData = true },
		"acksKnown":   func(t *tbe) { t.acksKnown = true },
		"grantE":      func(t *tbe) { t.grantE = true },
		"stalled source": func(t *tbe) {
			t.stalled = []*msg.Msg{{Type: msg.GetM, Addr: lineX, Src: l1A, Dst: c3ID, VNet: msg.VReq}}
		},
	} {
		if fingerprint(build(edit)) == base {
			t.Errorf("two C3s whose TBEs differ in %s hash alike", what)
		}
	}
}
