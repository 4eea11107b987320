// Package gen is the C3 generator: it merges a local-protocol SSP spec
// with a global-protocol SSP spec into the compound translation table
// that drives the C3 controller (internal/core), following Sec. IV-B/C
// and Sec. V of the paper.
//
// For every trigger (a core request arriving from the host domain, a
// device-initiated snoop arriving from the global domain, or a CXL-cache
// eviction) and every compound stable-state pair (S_local, S_global) the
// generator derives:
//
//   - whether Rule I requires a cross-domain delegation, and if so the
//     conceptual access (load/store/evict) to simulate in the other
//     domain (the "X-Access" column of Table II);
//   - the native local flow realizing that access (the "Action" column);
//   - the resulting compound state.
//
// The generator then computes the reachable compound-state set from
// (I, I) and verifies that every pair violating the inclusion property
// demanded by Rule I — e.g. (S, I) or (M, I), where the host holds data
// the global directory does not know about — is unreachable.
package gen

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"c3/internal/msg"
	"c3/internal/ssp"
)

// Trigger identifies the incoming stimulus a table entry handles.
// Local request triggers use the request mnemonic from the local spec
// ("GetS", "GetM", "GetV", "WrThrough"); global snoops and evictions use
// the reserved names below.
type Trigger string

// Reserved triggers.
const (
	TrigSnpLoad  Trigger = "snp:load"  // device snoop ~ conceptual load (BISnpData)
	TrigSnpStore Trigger = "snp:store" // device snoop ~ conceptual store (BISnpInv)
	TrigEvict    Trigger = "evict"     // CXL-cache replacement (Fig. 7)
)

// GlobalOp is the nested global flow an entry starts, if any.
type GlobalOp uint8

const (
	GNone    GlobalOp = iota
	GAcqS             // acquire shared rights (MemRd,S / GGetS)
	GAcqM             // acquire exclusive ownership (MemRd,A / GGetM)
	GWBDirty          // write back dirty data (MemWr,I / GPutM)
	GWBClean          // notify clean eviction (GPutS; absent under CXL)
)

func (g GlobalOp) String() string {
	switch g {
	case GNone:
		return "-"
	case GAcqS:
		return "AcqS"
	case GAcqM:
		return "AcqM"
	case GWBDirty:
		return "WB"
	case GWBClean:
		return "WBClean"
	}
	return fmt.Sprintf("GlobalOp(%d)", uint8(g))
}

// Pair is a compound stable state (S_local, S_global).
type Pair struct {
	L, G ssp.Class
}

func (p Pair) String() string { return fmt.Sprintf("(%s,%s)", p.L, p.G) }

// Key indexes the table.
type Key struct {
	Trigger Trigger
	State   Pair
}

// Entry is one generated translation (one row of Table II).
type Entry struct {
	// XAccess is the conceptual cross-domain access; AccNone when the
	// trigger is satisfiable within its origin domain.
	XAccess ssp.Access
	// GlobalOp is the nested global flow (for local triggers needing
	// delegation, and for evictions that must write back).
	GlobalOp GlobalOp
	// Plan is the nested local flow (for global snoops and for local
	// requests whose service must invalidate/downgrade host caches).
	Plan ssp.Plan
	// Grant is handed to the requesting host cache (local triggers).
	Grant ssp.Grant
	// Next is the compound state after the whole (possibly nested)
	// transaction completes. For GAcqS the runtime upgrades Next.G from
	// S to E when the completion grants exclusivity (CmpE/GDataE).
	Next Pair
	// Transient is the display name of the blocking intermediate state
	// (Table II's MI^A etc.); empty for immediate transitions.
	Transient string
}

// Table is the generated compound FSM for one protocol pair.
type Table struct {
	Local  *ssp.Spec
	Global *ssp.Spec

	Entries map[Key]Entry

	// Bindings resolved from the global spec.
	AcqSOp, AcqMOp, WBDirtyOp msg.Type
	WBCleanOp                 msg.Type // TInvalid when silent
	// SnpAccess maps incoming global snoop opcodes to conceptual
	// accesses (Table I).
	SnpAccess map[msg.Type]ssp.Access

	// Reachable is the closure of compound stable states from (I, I).
	Reachable map[Pair]bool
	// Forbidden lists pairs that violate inclusion and must never be
	// reachable.
	Forbidden []Pair
}

var mnemonics = map[string]msg.Type{
	"MemRd,S": msg.MemRdS, "MemRd,A": msg.MemRdA,
	"MemWr,I": msg.MemWrI, "MemWr,S": msg.MemWrS,
	"BISnpInv": msg.BISnpInv, "BISnpData": msg.BISnpData,
	"GGetS": msg.GGetS, "GGetM": msg.GGetM,
	"GPutM": msg.GPutM, "GPutS": msg.GPutS, "GPutE": msg.GPutE,
	"GFwdGetS": msg.GFwdGetS, "GFwdGetM": msg.GFwdGetM, "GInv": msg.GInv,
}

// globalClasses in generation order.
var globalClasses = []ssp.Class{ssp.ClsI, ssp.ClsS, ssp.ClsE, ssp.ClsM}

// satisfies reports whether global class g provides the rights n.
func satisfies(n ssp.Need, g ssp.Class) bool {
	switch n {
	case ssp.NeedNone:
		return true
	case ssp.NeedS:
		return g == ssp.ClsS || g == ssp.ClsE || g == ssp.ClsM
	case ssp.NeedM:
		return g == ssp.ClsE || g == ssp.ClsM
	}
	return false
}

// minRights returns the weakest global class satisfying n.
func minRights(n ssp.Need) ssp.Class {
	if n == ssp.NeedM {
		return ssp.ClsM
	}
	return ssp.ClsS
}

// localRightsOK reports whether local class l is consistent with global
// class g (the inclusion property Rule I maintains). Self-invalidating
// protocols are exempt: their host caches may hold stale data by design.
func localRightsOK(l, g ssp.Class, selfInv bool) bool {
	if selfInv {
		return true
	}
	switch l {
	case ssp.ClsI:
		return true
	case ssp.ClsS, ssp.ClsF:
		return g != ssp.ClsI
	case ssp.ClsM:
		return g == ssp.ClsE || g == ssp.ClsM
	case ssp.ClsO:
		// A stale-dirty owner can coexist with global S after a load
		// snoop wrote the data back (Fig. 3 resolved via delegation).
		return g != ssp.ClsI
	}
	return false
}

// shared memoizes Shared by spec text, so spellings of one protocol
// ("mesi", "MESI") share one parse and one table.
var shared = struct {
	sync.Mutex
	specs  map[string]*ssp.Spec // embedded text -> its parse
	tables map[[2]string]*Table // (local text, global text) -> table
}{specs: map[string]*ssp.Spec{}, tables: map[[2]string]*Table{}}

// Shared returns the compound table for the named local and global
// protocols (the names ssp.Local and ssp.Global accept). Each embedded
// spec is parsed, and each pair generated, at most once per process;
// every caller, on any goroutine, receives the same table, so the table
// and its specs are read-only. Generate synthesizes a private table.
func Shared(local, global string) (*Table, error) {
	gt, ok := ssp.GlobalText(global)
	if !ok {
		return nil, fmt.Errorf("gen: unknown global protocol %q", global)
	}
	lt, ok := ssp.LocalText(local)
	if !ok {
		return nil, fmt.Errorf("gen: unknown local protocol %q", local)
	}
	key := [2]string{lt, gt}
	shared.Lock()
	defer shared.Unlock()
	if t := shared.tables[key]; t != nil {
		return t, nil
	}
	spec := func(text string) *ssp.Spec {
		s := shared.specs[text]
		if s == nil {
			s = ssp.MustParse(text)
			shared.specs[text] = s
		}
		return s
	}
	t, err := Generate(spec(lt), spec(gt))
	if err != nil {
		return nil, err
	}
	shared.tables[key] = t
	return t, nil
}

// Generate merges local and global specs into a compound table.
func Generate(local, global *ssp.Spec) (*Table, error) {
	if local.Role != ssp.RoleLocal {
		return nil, fmt.Errorf("gen: %s is not a local spec", local.Name)
	}
	if global.Role != ssp.RoleGlobal {
		return nil, fmt.Errorf("gen: %s is not a global spec", global.Name)
	}
	t := &Table{
		Local: local, Global: global,
		Entries:   make(map[Key]Entry),
		SnpAccess: make(map[msg.Type]ssp.Access),
		Reachable: make(map[Pair]bool),
	}

	var ok bool
	if t.AcqSOp, ok = mnemonics[global.AcqS["send"]]; !ok {
		return nil, fmt.Errorf("gen: unknown acq S mnemonic %q", global.AcqS["send"])
	}
	if t.AcqMOp, ok = mnemonics[global.AcqM["send"]]; !ok {
		return nil, fmt.Errorf("gen: unknown acq M mnemonic %q", global.AcqM["send"])
	}
	if t.WBDirtyOp, ok = mnemonics[global.WB["dirty"]]; !ok {
		return nil, fmt.Errorf("gen: unknown wb mnemonic %q", global.WB["dirty"])
	}
	if c, has := global.WB["clean"]; has {
		if t.WBCleanOp, ok = mnemonics[c]; !ok {
			return nil, fmt.Errorf("gen: unknown clean-wb mnemonic %q", c)
		}
	}
	for name, acc := range global.SnpBind {
		op, ok := mnemonics[name]
		if !ok {
			return nil, fmt.Errorf("gen: unknown snoop mnemonic %q", name)
		}
		t.SnpAccess[op] = acc
	}

	selfInv := local.Params.SelfInvalidate

	// 1. Local request triggers: cross every request rule with every
	// global class ("simulating the core access that would trigger an
	// equivalent action in the target domain").
	for _, r := range local.Reqs {
		for _, g := range globalClasses {
			if !localRightsOK(r.Class, g, selfInv) {
				continue // compound state itself is forbidden
			}
			key := Key{Trigger: Trigger(r.Req), State: Pair{r.Class, g}}
			e := Entry{Plan: r.Plan, Grant: r.Grant}
			if satisfies(r.Need, g) {
				nextG := g
				if r.Grant == ssp.GrantM && g == ssp.ClsE {
					// Writing under exclusive-clean silently dirties the
					// CXL cache at global scope.
					nextG = ssp.ClsM
				}
				e.Next = Pair{r.Next, nextG}
				e.Grant = adjustGrant(r, g, local.Params)
			} else {
				// Rule I: delegate. The conceptual access in the global
				// domain is a load for shared rights, a store for
				// ownership.
				if r.Need == ssp.NeedM {
					e.XAccess = ssp.AccStore
					e.GlobalOp = GAcqM
				} else {
					e.XAccess = ssp.AccLoad
					e.GlobalOp = GAcqS
				}
				e.Next = Pair{r.Next, minRights(r.Need)}
				e.Transient = transientName(r.Class, g, e.Next)
				e.Grant = adjustGrant(r, e.Next.G, local.Params)
			}
			t.Entries[key] = e
		}
	}

	// 2. Global snoop triggers: the device-initiated access is realized
	// with the local protocol's native flows per the snp rules.
	for _, acc := range []ssp.Access{ssp.AccLoad, ssp.AccStore} {
		trig := TrigSnpLoad
		if acc == ssp.AccStore {
			trig = TrigSnpStore
		}
		for _, l := range local.Classes {
			for _, g := range globalClasses {
				if !localRightsOK(l, g, selfInv) {
					continue
				}
				sr, ok := local.SnpRule(acc, l)
				if !ok {
					return nil, fmt.Errorf("gen: %s lacks snp rule %v@%v", local.Name, acc, l)
				}
				var nextG ssp.Class
				if acc == ssp.AccStore {
					nextG = ssp.ClsI
				} else {
					// Sharing a line leaves global S; the response writes
					// dirty data back (the CXL WB of Fig. 2), and a snoop
					// of an invalid line leaves it invalid.
					nextG = ssp.ClsS
					if g == ssp.ClsI {
						nextG = ssp.ClsI
					}
				}
				e := Entry{Plan: sr.Plan, Next: Pair{sr.Next, nextG}}
				if acc == ssp.AccStore && sr.Next != ssp.ClsI && !selfInv {
					return nil, fmt.Errorf("gen: %s: store snoop must invalidate, got next=%v", local.Name, sr.Next)
				}
				if sr.Plan != ssp.PlanNone {
					// The local flow is the conceptual cross access.
					e.XAccess = acc
					e.Transient = transientName(l, g, e.Next)
				}
				if acc == ssp.AccLoad && g == ssp.ClsI {
					// Silently dropped earlier; nothing to share. The
					// local class keeps the spec's own successor (NT for
					// self-invalidating protocols, I otherwise).
					e.Plan = ssp.PlanNone
					e.XAccess = ssp.AccNone
					e.Next = Pair{sr.Next, ssp.ClsI}
					if !local.Params.SelfInvalidate {
						e.Next.L = ssp.ClsI
					}
					e.Transient = ""
				}
				t.Entries[Key{trig, Pair{l, g}}] = e
			}
		}
	}

	// 3. Evictions (Fig. 7): reclaim host copies, then write back dirty
	// global state. The post-eviction local class is the protocol's
	// initial class (I, or NT for self-invalidating protocols).
	initial := local.Classes[0]
	for _, l := range local.Classes {
		er, ok := local.EvtRule(l)
		if !ok {
			return nil, fmt.Errorf("gen: %s lacks evt rule for %v", local.Name, l)
		}
		for _, g := range globalClasses {
			if !localRightsOK(l, g, selfInv) {
				continue
			}
			e := Entry{Plan: er.Plan, Next: Pair{initial, ssp.ClsI}}
			if er.Plan != ssp.PlanNone {
				e.XAccess = ssp.AccStore // reclaiming mimics a store (Fig. 7)
			}
			switch g {
			case ssp.ClsM:
				e.GlobalOp = GWBDirty
			case ssp.ClsS, ssp.ClsE:
				if !global.Params.SilentCleanEvict && t.WBCleanOp != msg.TInvalid {
					e.GlobalOp = GWBClean
				}
			}
			if e.GlobalOp != GNone || e.Plan != ssp.PlanNone {
				e.Transient = transientName(l, g, e.Next)
			}
			t.Entries[Key{TrigEvict, Pair{l, g}}] = e
		}
	}

	t.computeForbidden()
	t.computeReachable()
	for _, p := range t.Forbidden {
		if t.Reachable[p] {
			return nil, fmt.Errorf("gen: forbidden compound state %v is reachable", p)
		}
	}
	return t, nil
}

// adjustGrant refines the spec's grant with Rule I context: exclusive-
// clean may only be granted when the global rights are exclusive, and
// only when no other host sharer exists (class I).
func adjustGrant(r ssp.ReqRule, g ssp.Class, p ssp.Params) ssp.Grant {
	if r.Grant == ssp.GrantS && p.GrantE && r.Class == ssp.ClsI &&
		(g == ssp.ClsE || g == ssp.ClsM) {
		return ssp.GrantE
	}
	return r.Grant
}

func transientName(l, g ssp.Class, next Pair) string {
	return fmt.Sprintf("%s%s^A,%s%s^A", l, next.L, g, next.G)
}

func (t *Table) computeForbidden() {
	selfInv := t.Local.Params.SelfInvalidate
	for _, l := range t.Local.Classes {
		for _, g := range globalClasses {
			if !localRightsOK(l, g, selfInv) {
				t.Forbidden = append(t.Forbidden, Pair{l, g})
			}
		}
	}
}

// localDecay lists the local classes reachable when host caches evict
// their copies on their own (PutS/PutE/PutM/PutO flows, which are
// handled by the runtime's directory bookkeeping rather than by table
// triggers): the last sharer leaving S yields I, an O writeback with
// surviving sharers yields S, etc.
var localDecay = map[ssp.Class][]ssp.Class{
	ssp.ClsS: {ssp.ClsI},
	ssp.ClsF: {ssp.ClsS, ssp.ClsI},
	ssp.ClsM: {ssp.ClsI},
	ssp.ClsO: {ssp.ClsS, ssp.ClsI},
}

func (t *Table) computeReachable() {
	start := Pair{t.Local.Classes[0], ssp.ClsI}
	// The initial local class is the spec's first (I or NT).
	work := []Pair{start}
	t.Reachable[start] = true
	add := func(n Pair) {
		if !t.Reachable[n] {
			t.Reachable[n] = true
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		for k, e := range t.Entries {
			if k.State != p {
				continue
			}
			add(e.Next)
			if e.GlobalOp == GAcqS {
				// Completion may grant E instead of S.
				add(Pair{e.Next.L, ssp.ClsE})
			}
		}
		for _, d := range localDecay[p.L] {
			if t.Local.HasClass(d) {
				add(Pair{d, p.G})
			}
		}
	}
}

// Lookup fetches the entry for (trigger, l, g); it panics on a miss,
// which indicates a generator bug or a forbidden runtime state — exactly
// the "never reachable" combinations Rule I prunes.
func (t *Table) Lookup(trig Trigger, l, g ssp.Class) Entry {
	e, ok := t.Entries[Key{trig, Pair{l, g}}]
	if !ok {
		panic(fmt.Sprintf("gen: no entry for %s at (%s,%s) in %s-%s", trig, l, g,
			t.Local.Name, t.Global.Name))
	}
	return e
}

// Has reports whether an entry exists.
func (t *Table) Has(trig Trigger, l, g ssp.Class) bool {
	_, ok := t.Entries[Key{trig, Pair{l, g}}]
	return ok
}

// Render prints the table in the style of the paper's Table II.
func (t *Table) Render() string {
	var keys []Key
	for k := range t.Entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Trigger != keys[j].Trigger {
			return keys[i].Trigger < keys[j].Trigger
		}
		if keys[i].State.L != keys[j].State.L {
			return keys[i].State.L < keys[j].State.L
		}
		return keys[i].State.G < keys[j].State.G
	})
	var b strings.Builder
	fmt.Fprintf(&b, "C3 translation table %s-%s (%d entries)\n",
		t.Local.Name, t.Global.Name, len(t.Entries))
	fmt.Fprintf(&b, "%-12s %-8s %-9s %-12s %-8s %-8s %s\n",
		"Message", "S", "X-Access", "Action", "Global", "Grant", "S_next")
	for _, k := range keys {
		e := t.Entries[k]
		fmt.Fprintf(&b, "%-12s %-8s %-9s %-12s %-8s %-8s %s\n",
			k.Trigger, k.State, e.XAccess, e.Plan, e.GlobalOp, e.Grant, e.Next)
	}
	b.WriteString("\nForbidden compound states (pruned by Rule I):")
	for _, p := range t.Forbidden {
		fmt.Fprintf(&b, " %s", p)
	}
	b.WriteString("\nReachable stable states:")
	var rs []string
	for p := range t.Reachable {
		rs = append(rs, p.String())
	}
	sort.Strings(rs)
	for _, p := range rs {
		fmt.Fprintf(&b, " %s", p)
	}
	b.WriteString("\n")
	return b.String()
}
