package ssp

import (
	"strings"
	"testing"
)

func TestParseAllEmbeddedSpecs(t *testing.T) {
	for _, name := range LocalNames() {
		s, ok := Local(name)
		if !ok || s == nil {
			t.Fatalf("Local(%q) failed", name)
		}
		if s.Role != RoleLocal {
			t.Errorf("%s: role = %v, want local", name, s.Role)
		}
	}
	for _, name := range GlobalNames() {
		s, ok := Global(name)
		if !ok || s == nil {
			t.Fatalf("Global(%q) failed", name)
		}
		if s.Role != RoleGlobal {
			t.Errorf("%s: role = %v, want global", name, s.Role)
		}
	}
	if _, ok := Local("nope"); ok {
		t.Error("Local should reject unknown protocols")
	}
	if _, ok := Global("nope"); ok {
		t.Error("Global should reject unknown protocols")
	}
}

func TestMESISpecShape(t *testing.T) {
	s := MustParse(MESIText)
	if s.Name != "MESI" || len(s.Classes) != 3 {
		t.Fatalf("unexpected spec: %+v", s)
	}
	if !s.Params.GrantE {
		t.Error("MESI should grant E")
	}
	r, ok := s.ReqRule("GetM", ClsS)
	if !ok || r.Need != NeedM || r.Plan != PlanInvSharers || r.Grant != GrantM || r.Next != ClsM {
		t.Fatalf("GetM@S rule wrong: %+v ok=%v", r, ok)
	}
	sn, ok := s.SnpRule(AccLoad, ClsM)
	if !ok || sn.Plan != PlanSnpOwner || sn.Next != ClsS {
		t.Fatalf("load-snoop@M rule wrong: %+v", sn)
	}
	e, ok := s.EvtRule(ClsM)
	if !ok || e.Plan != PlanInvOwner {
		t.Fatalf("evt@M rule wrong: %+v", e)
	}
}

func TestMOESIKeepsDirtyOwner(t *testing.T) {
	s := MustParse(MOESIText)
	sn, ok := s.SnpRule(AccLoad, ClsM)
	if !ok || sn.Next != ClsO {
		t.Fatalf("MOESI load snoop on M should leave O, got %+v", sn)
	}
	if !s.Params.OwnerKeepsDirty {
		t.Error("MOESI should set owner-keeps-dirty")
	}
	r, _ := s.ReqRule("GetM", ClsO)
	if r.Plan != PlanInvAll {
		t.Errorf("GetM@O should invalidate all, got %v", r.Plan)
	}
}

func TestMESIFLoadSnoopNeedsNoHostFlow(t *testing.T) {
	s := MustParse(MESIFText)
	sn, _ := s.SnpRule(AccLoad, ClsF)
	if sn.Plan != PlanNone {
		t.Fatalf("F is clean: global load snoop should not delegate, got %v", sn.Plan)
	}
	if !s.Params.Forwarder {
		t.Error("MESIF should track a forwarder")
	}
}

func TestRCCIsUntracked(t *testing.T) {
	s := MustParse(RCCText)
	if !s.Params.SelfInvalidate {
		t.Fatal("RCC must be self-invalidating")
	}
	for _, a := range []Access{AccLoad, AccStore} {
		sn, ok := s.SnpRule(a, ClsN)
		if !ok || sn.Plan != PlanNone {
			t.Fatalf("RCC snoop %v should be plan=none, got %+v", a, sn)
		}
	}
	r, ok := s.ReqRule("WrThrough", ClsN)
	if !ok || r.Need != NeedM {
		t.Fatalf("RCC WrThrough should need global M: %+v", r)
	}
}

func TestCXLBindings(t *testing.T) {
	s := MustParse(CXLText)
	if s.AcqM["send"] != "MemRd,A" || s.AcqS["send"] != "MemRd,S" {
		t.Fatalf("CXL acq bindings wrong: %v %v", s.AcqS, s.AcqM)
	}
	if s.WB["dirty"] != "MemWr,I" {
		t.Fatalf("CXL wb binding wrong: %v", s.WB)
	}
	if s.SnpBind["BISnpInv"] != AccStore || s.SnpBind["BISnpData"] != AccLoad {
		t.Fatalf("Table I equivalences wrong: %v", s.SnpBind)
	}
	if !s.Params.ConflictHandshake {
		t.Error("CXL must use the conflict handshake")
	}
}

func TestHMESIBindings(t *testing.T) {
	s := MustParse(HMESIText)
	if s.Params.ConflictHandshake {
		t.Error("H-MESI resolves races by stalling, not handshaking")
	}
	if !s.Params.PeerData {
		t.Error("H-MESI uses peer-to-peer data")
	}
	if s.SnpBind["GFwdGetM"] != AccStore || s.SnpBind["GFwdGetS"] != AccLoad {
		t.Fatalf("H-MESI snoop bindings wrong: %v", s.SnpBind)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"no name", "role local\nclasses I\nsnp load I plan=none\nsnp store I plan=none\nevt I plan=none", "missing protocol name"},
		{"no classes", "protocol X\nrole local", "no classes"},
		{"dup class", "protocol X\nrole local\nclasses I I", "duplicate class"},
		{"bad directive", "protocol X\nbogus", "unknown directive"},
		{"bad plan", "protocol X\nrole local\nclasses I\nsnp load I plan=fly", "unknown plan"},
		{"bad role", "protocol X\nrole sideways", "unknown role"},
		{"bad kv", "protocol X\nrole local\nclasses I\nreq GetS I plan", "key=value"},
		{"undeclared class", "protocol X\nrole local\nclasses I\nreq GetS Q plan=none", "undeclared class"},
		{"incomplete snoops", "protocol X\nrole local\nclasses I S\nsnp load I plan=none\nsnp store I plan=none\nevt I plan=none\nevt S plan=none", "missing snp rule"},
		{"global needs acq", "protocol X\nrole global\nclasses I\ngsnp A access=load", "needs acq"},
		{"bad access", "protocol X\nrole global\nclasses I\nacq S send=a\nacq M send=b\nwb dirty=c\ngsnp A access=jump", "access=load|store"},
		{"bad param", "protocol X\nparams zoom=true", "unknown param"},
		{"bare role", "role", "role wants"},
		{"bare acq", "acq", "acq wants"},
		{"bare gsnp", "gsnp", "gsnp wants"},
	}
	for _, c := range cases {
		_, err := Parse(c.text)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

// FuzzParseSpec feeds Parse arbitrary spec text, seeded with the six
// embedded specs: it must return an error rather than panic, and a spec
// it accepts must pass validate.
func FuzzParseSpec(f *testing.F) {
	for _, text := range []string{MESIText, MOESIText, MESIFText, RCCText, CXLText, HMESIText} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		if err := s.validate(); err != nil {
			t.Fatalf("Parse accepted a spec that fails validate: %v", err)
		}
	})
}

func TestCommentsAndBlankLines(t *testing.T) {
	s, err := Parse("# header\n\nprotocol T # trailing\nrole local\nclasses I\nsnp load I plan=none\nsnp store I plan=none\nevt I plan=none\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "T" {
		t.Fatalf("name = %q", s.Name)
	}
}

func TestMustParsePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on a bad spec")
		}
	}()
	MustParse("protocol X\nbroken")
}

func TestLookupMisses(t *testing.T) {
	s := MustParse(MESIText)
	if _, ok := s.ReqRule("GetS", ClsO); ok {
		t.Error("MESI has no O class")
	}
	if _, ok := s.SnpRule(AccEvict, ClsM); ok {
		t.Error("no evict snp rules declared in MESI")
	}
	if _, ok := s.EvtRule(ClsO); ok {
		t.Error("no O evt rule in MESI")
	}
	if s.HasClass(ClsO) {
		t.Error("HasClass(O) should be false for MESI")
	}
	if !s.HasClass(ClsM) {
		t.Error("HasClass(M) should be true for MESI")
	}
}

func TestStringers(t *testing.T) {
	if PlanInvSharers.String() != "inv-sharers" || AccLoad.String() != "load" ||
		GrantM.String() != "M" || RoleLocal.String() != "local" {
		t.Error("stringer mismatch")
	}
}
