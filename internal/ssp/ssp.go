// Package ssp defines the stable-state protocol (SSP) specification
// format consumed by the C3 generator (internal/gen), mirroring the
// paper's Progen-based front end: "a generator tool that takes
// machine-readable stable state protocol (SSP) specifications for both
// host and CXL CC protocols as input, merges them, and outputs [the]
// C3-logic".
//
// A spec describes one protocol in one of two roles:
//
//   - role local: the protocol spoken inside a host cluster. The spec
//     enumerates the cluster directory's view (stable state classes such
//     as I/S/M/O/F), how each core request is served in each class, how a
//     delegated global access (a conceptual load/store/evict crossing the
//     domain boundary, Sec. IV-B of the paper) is realized with native
//     local flows, and protocol parameters (exclusive-clean grants,
//     forwarder tracking, self-invalidation).
//
//   - role global: the protocol spoken between C3 instances and the
//     global directory. The spec names the native flows for acquiring
//     shared/exclusive rights and writing back, the snoop messages and
//     the conceptual access each corresponds to (Table I of the paper),
//     and the race-resolution mechanism (CXL's conflict handshake vs.
//     hierarchical MESI's transient stalling).
//
// Specs are plain text (see the embedded *.ssp constants in specs.go)
// so that new protocols can be added without touching the generator.
package ssp

import (
	"bufio"
	"fmt"
	"strings"
)

// Role distinguishes the two domains a protocol can serve.
type Role uint8

const (
	RoleLocal Role = iota
	RoleGlobal
)

func (r Role) String() string {
	if r == RoleLocal {
		return "local"
	}
	return "global"
}

// Class is a stable-state class in the directory's (or cache's) view.
// Classes abstract over states the directory cannot distinguish: a local
// class "M" covers host E and M because of silent E->M upgrades.
type Class string

// Canonical classes used by the embedded specs.
const (
	ClsI Class = "I"  // no copy
	ClsS Class = "S"  // clean sharer(s)
	ClsE Class = "E"  // exclusive clean (global role)
	ClsM Class = "M"  // exclusive owner, possibly dirty
	ClsO Class = "O"  // dirty owner with possible sharers (MOESI)
	ClsF Class = "F"  // shared with designated forwarder (MESIF)
	ClsN Class = "NT" // untracked (RCC self-invalidation)
)

// Plan is the native local flow used to realize an access (the "Action"
// column of the paper's Table II).
type Plan uint8

const (
	PlanNone       Plan = iota // satisfiable without touching host caches
	PlanInvSharers             // invalidate all sharers
	PlanSnpOwner               // fetch data from owner, downgrade it
	PlanInvOwner               // fetch data from owner, invalidate it
	PlanInvAll                 // invalidate owner and sharers
)

var planNames = map[string]Plan{
	"none": PlanNone, "inv-sharers": PlanInvSharers,
	"snoop-owner": PlanSnpOwner, "inv-owner": PlanInvOwner, "inv-all": PlanInvAll,
}

func (p Plan) String() string {
	for s, v := range planNames {
		if v == p {
			return s
		}
	}
	return fmt.Sprintf("Plan(%d)", uint8(p))
}

// Access is the conceptual cross-domain access (the "X-Access" column of
// Table II): the universal load/store/evict vocabulary both domains
// understand.
type Access uint8

const (
	AccNone Access = iota
	AccLoad
	AccStore
	AccEvict
)

var accessNames = map[string]Access{
	"none": AccNone, "load": AccLoad, "store": AccStore, "evict": AccEvict,
}

func (a Access) String() string {
	for s, v := range accessNames {
		if v == a {
			return s
		}
	}
	return fmt.Sprintf("Access(%d)", uint8(a))
}

// Need is the minimum global right a local request requires (Rule I:
// anything that cannot be satisfied under the current global rights must
// be delegated).
type Need uint8

const (
	NeedNone Need = iota
	NeedS         // any readable right: S/E/M
	NeedM         // exclusive ownership: E/M
)

// Grant is what the directory hands the requesting cache.
type Grant uint8

const (
	GrantNone Grant = iota
	GrantS
	GrantE // exclusive clean (only when global rights permit)
	GrantM
	GrantV // RCC valid copy (no tracking)
)

var grantNames = map[string]Grant{
	"none": GrantNone, "S": GrantS, "E": GrantE, "M": GrantM, "V": GrantV,
}

func (g Grant) String() string {
	for s, v := range grantNames {
		if v == g {
			return s
		}
	}
	return fmt.Sprintf("Grant(%d)", uint8(g))
}

// ReqRule describes how a core request is served in one local class.
type ReqRule struct {
	Req   string // request mnemonic: GetS, GetM, GetV, WrThrough
	Class Class
	Need  Need
	Plan  Plan
	Grant Grant
	Next  Class
}

// SnpRule describes how a delegated global access is realized locally.
type SnpRule struct {
	Access Access
	Class  Class
	Plan   Plan
	Next   Class
}

// EvtRule describes how the CXL-cache reclaim of a line is realized for
// one local class (Fig. 7 of the paper).
type EvtRule struct {
	Class Class
	Plan  Plan
}

// Params are per-protocol knobs the generator and runtime honor.
type Params struct {
	// GrantE: a GetS with no other sharers yields exclusive-clean.
	GrantE bool
	// Forwarder: track a designated forwarder among sharers (MESIF F).
	Forwarder bool
	// OwnerKeepsDirty: a load snoop leaves a dirty owner (MOESI O).
	OwnerKeepsDirty bool
	// SelfInvalidate: RCC-style; host caches are not tracked and
	// synchronize via acquire/release.
	SelfInvalidate bool

	// Global-role knobs.
	// ConflictHandshake: races between a pending request and an incoming
	// snoop resolve via BIConflict/BIConflictAck (CXL). When false the
	// global protocol stalls snoops in transient states (H-MESI).
	ConflictHandshake bool
	// PeerData: data responses may travel peer-to-peer between caches
	// (3-hop H-MESI); CXL routes everything through the directory.
	PeerData bool
	// SilentCleanEvict: clean lines may be dropped without notifying the
	// global directory.
	SilentCleanEvict bool
}

// Spec is one parsed protocol specification.
type Spec struct {
	Name    string
	Role    Role
	Classes []Class
	Params  Params

	// Local-role rules.
	Reqs []ReqRule
	Snps []SnpRule
	Evts []EvtRule

	// Global-role message bindings (mnemonics from the msg package),
	// e.g. AcqS["send"] = "MemRd,S".
	AcqS, AcqM, WB map[string]string
	// SnpBind maps the global snoop mnemonic to its conceptual access
	// (Table I: BISnpData ~ Fwd-GetS ~ load; BISnpInv ~ Fwd-GetM ~ store).
	SnpBind map[string]Access
}

// HasClass reports whether c is declared.
func (s *Spec) HasClass(c Class) bool {
	for _, x := range s.Classes {
		if x == c {
			return true
		}
	}
	return false
}

// ReqRule finds the rule for (req, class); ok is false if undeclared.
func (s *Spec) ReqRule(req string, c Class) (ReqRule, bool) {
	for _, r := range s.Reqs {
		if r.Req == req && r.Class == c {
			return r, true
		}
	}
	return ReqRule{}, false
}

// SnpRule finds the rule for (access, class).
func (s *Spec) SnpRule(a Access, c Class) (SnpRule, bool) {
	for _, r := range s.Snps {
		if r.Access == a && r.Class == c {
			return r, true
		}
	}
	return SnpRule{}, false
}

// EvtRule finds the reclaim rule for class c.
func (s *Spec) EvtRule(c Class) (EvtRule, bool) {
	for _, r := range s.Evts {
		if r.Class == c {
			return r, true
		}
	}
	return EvtRule{}, false
}

// Parse reads a spec from its textual form.
func Parse(text string) (*Spec, error) {
	s := &Spec{
		AcqS: map[string]string{}, AcqM: map[string]string{}, WB: map[string]string{},
		SnpBind: map[string]Access{},
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if err := s.parseLine(line); err != nil {
			return nil, fmt.Errorf("ssp: line %d: %w", lineno, err)
		}
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("ssp: %s: %w", s.Name, err)
	}
	return s, nil
}

// MustParse is Parse for the embedded, test-covered specs.
func MustParse(text string) *Spec {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

func kvs(fields []string) (map[string]string, error) {
	m := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("expected key=value, got %q", f)
		}
		m[k] = v
	}
	return m, nil
}

func (s *Spec) parseLine(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "protocol":
		if len(fields) != 2 {
			return fmt.Errorf("protocol wants a name")
		}
		s.Name = fields[1]
	case "role":
		if len(fields) != 2 {
			return fmt.Errorf("role wants local or global")
		}
		switch fields[1] {
		case "local":
			s.Role = RoleLocal
		case "global":
			s.Role = RoleGlobal
		default:
			return fmt.Errorf("unknown role %q", fields[1])
		}
	case "classes":
		for _, c := range fields[1:] {
			s.Classes = append(s.Classes, Class(c))
		}
	case "params":
		m, err := kvs(fields[1:])
		if err != nil {
			return err
		}
		for k, v := range m {
			on := v == "true" || v == "yes"
			switch k {
			case "grantE":
				s.Params.GrantE = on
			case "forwarder":
				s.Params.Forwarder = on
			case "owner-keeps-dirty":
				s.Params.OwnerKeepsDirty = on
			case "self-invalidate":
				s.Params.SelfInvalidate = on
			case "conflict-handshake":
				s.Params.ConflictHandshake = on
			case "peer-data":
				s.Params.PeerData = on
			case "silent-clean-evict":
				s.Params.SilentCleanEvict = on
			default:
				return fmt.Errorf("unknown param %q", k)
			}
		}
	case "req":
		// req GetM S needs=M plan=inv-sharers grant=M next=M
		if len(fields) < 3 {
			return fmt.Errorf("req wants: req NAME CLASS k=v...")
		}
		m, err := kvs(fields[3:])
		if err != nil {
			return err
		}
		r := ReqRule{Req: fields[1], Class: Class(fields[2]), Next: Class(fields[2])}
		switch m["needs"] {
		case "", "none":
		case "S":
			r.Need = NeedS
		case "M":
			r.Need = NeedM
		default:
			return fmt.Errorf("unknown needs %q", m["needs"])
		}
		var ok bool
		if p, has := m["plan"]; has {
			if r.Plan, ok = planNames[p]; !ok {
				return fmt.Errorf("unknown plan %q", p)
			}
		}
		if g, has := m["grant"]; has {
			if r.Grant, ok = grantNames[g]; !ok {
				return fmt.Errorf("unknown grant %q", g)
			}
		}
		if n, has := m["next"]; has {
			r.Next = Class(n)
		}
		s.Reqs = append(s.Reqs, r)
	case "snp":
		// snp store M plan=inv-owner next=I
		if len(fields) < 3 {
			return fmt.Errorf("snp wants: snp ACCESS CLASS k=v...")
		}
		a, ok := accessNames[fields[1]]
		if !ok {
			return fmt.Errorf("unknown access %q", fields[1])
		}
		m, err := kvs(fields[3:])
		if err != nil {
			return err
		}
		r := SnpRule{Access: a, Class: Class(fields[2]), Next: Class(fields[2])}
		if p, has := m["plan"]; has {
			if r.Plan, ok = planNames[p]; !ok {
				return fmt.Errorf("unknown plan %q", p)
			}
		}
		if n, has := m["next"]; has {
			r.Next = Class(n)
		}
		s.Snps = append(s.Snps, r)
	case "evt":
		// evt M plan=inv-owner
		if len(fields) < 2 {
			return fmt.Errorf("evt wants: evt CLASS k=v...")
		}
		m, err := kvs(fields[2:])
		if err != nil {
			return err
		}
		r := EvtRule{Class: Class(fields[1])}
		if p, has := m["plan"]; has {
			var ok bool
			if r.Plan, ok = planNames[p]; !ok {
				return fmt.Errorf("unknown plan %q", p)
			}
		}
		s.Evts = append(s.Evts, r)
	case "acq":
		// acq S send=MemRd,S  /  acq M send=MemRd,A
		if len(fields) < 2 {
			return fmt.Errorf("acq wants: acq S|M k=v...")
		}
		m, err := kvs(fields[2:])
		if err != nil {
			return err
		}
		switch fields[1] {
		case "S":
			for k, v := range m {
				s.AcqS[k] = v
			}
		case "M":
			for k, v := range m {
				s.AcqM[k] = v
			}
		default:
			return fmt.Errorf("acq wants S or M")
		}
	case "wb":
		m, err := kvs(fields[1:])
		if err != nil {
			return err
		}
		for k, v := range m {
			s.WB[k] = v
		}
	case "gsnp":
		// gsnp BISnpInv access=store
		if len(fields) < 2 {
			return fmt.Errorf("gsnp wants: gsnp MSG access=load|store")
		}
		m, err := kvs(fields[2:])
		if err != nil {
			return err
		}
		a, ok := accessNames[m["access"]]
		if !ok {
			return fmt.Errorf("gsnp wants access=load|store")
		}
		s.SnpBind[fields[1]] = a
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}

func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("missing protocol name")
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("no classes declared")
	}
	seen := map[Class]bool{}
	for _, c := range s.Classes {
		if seen[c] {
			return fmt.Errorf("duplicate class %q", c)
		}
		seen[c] = true
	}
	check := func(c Class, ctx string) error {
		if !seen[c] {
			return fmt.Errorf("%s references undeclared class %q", ctx, c)
		}
		return nil
	}
	if s.Role == RoleLocal {
		for _, r := range s.Reqs {
			if err := check(r.Class, "req "+r.Req); err != nil {
				return err
			}
			if err := check(r.Next, "req "+r.Req+" next"); err != nil {
				return err
			}
		}
		for _, r := range s.Snps {
			if err := check(r.Class, "snp"); err != nil {
				return err
			}
			if err := check(r.Next, "snp next"); err != nil {
				return err
			}
		}
		// Completeness: every (load|store) access must have a rule for
		// every class, or the compound FSM would have holes.
		for _, a := range []Access{AccLoad, AccStore} {
			for _, c := range s.Classes {
				if _, ok := s.SnpRule(a, c); !ok {
					return fmt.Errorf("missing snp rule for %v in class %v", a, c)
				}
			}
		}
		for _, c := range s.Classes {
			if _, ok := s.EvtRule(c); !ok {
				return fmt.Errorf("missing evt rule for class %v", c)
			}
		}
	} else {
		if len(s.AcqS) == 0 || len(s.AcqM) == 0 || len(s.WB) == 0 {
			return fmt.Errorf("global spec needs acq S, acq M and wb bindings")
		}
		if len(s.SnpBind) == 0 {
			return fmt.Errorf("global spec declares no snoops")
		}
	}
	return nil
}
