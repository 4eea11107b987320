package ssp

// Embedded stable-state protocol specifications. These are the inputs the
// generator merges into C3 compound FSMs, playing the role of the paper's
// machine-readable SSP files.

// MESIText is the textbook MESI directory view: classes I/S/M, where M
// covers host E and M (silent E->M upgrades make them indistinguishable
// from the directory).
const MESIText = `
protocol MESI
role local
classes I S M
params grantE=true

req GetS I needs=S plan=none        grant=S next=S
req GetS S needs=S plan=none        grant=S next=S
req GetS M needs=S plan=snoop-owner grant=S next=S
req GetM I needs=M plan=none        grant=M next=M
req GetM S needs=M plan=inv-sharers grant=M next=M
req GetM M needs=M plan=inv-owner   grant=M next=M

snp load  I plan=none        next=I
snp load  S plan=none        next=S
snp load  M plan=snoop-owner next=S
snp store I plan=none        next=I
snp store S plan=inv-sharers next=I
snp store M plan=inv-owner   next=I

evt I plan=none
evt S plan=inv-sharers
evt M plan=inv-owner
`

// MOESIText adds the Owned class: a load snoop leaves the dirty owner in
// place (O) instead of forcing a clean downgrade — the protocol mismatch
// of Fig. 3 that C3 reconciles through delegation.
const MOESIText = `
protocol MOESI
role local
classes I S M O
params grantE=true owner-keeps-dirty=true

req GetS I needs=S plan=none        grant=S next=S
req GetS S needs=S plan=none        grant=S next=S
req GetS M needs=S plan=snoop-owner grant=S next=O
req GetS O needs=S plan=snoop-owner grant=S next=O
req GetM I needs=M plan=none        grant=M next=M
req GetM S needs=M plan=inv-sharers grant=M next=M
req GetM M needs=M plan=inv-owner   grant=M next=M
req GetM O needs=M plan=inv-all     grant=M next=M

snp load  I plan=none        next=I
snp load  S plan=none        next=S
snp load  M plan=snoop-owner next=O
snp load  O plan=snoop-owner next=O
snp store I plan=none        next=I
snp store S plan=inv-sharers next=I
snp store M plan=inv-owner   next=I
snp store O plan=inv-all     next=I

evt I plan=none
evt S plan=inv-sharers
evt M plan=inv-owner
evt O plan=inv-all
`

// MESIFText adds the Forward class: among clean sharers one is the
// designated responder; a new read joins as the forwarder. Because F is
// clean, global load snoops are satisfiable from the CXL cache without
// host involvement.
const MESIFText = `
protocol MESIF
role local
classes I S M F
params grantE=true forwarder=true

req GetS I needs=S plan=none        grant=S next=F
req GetS S needs=S plan=none        grant=S next=F
req GetS F needs=S plan=snoop-owner grant=S next=F
req GetS M needs=S plan=snoop-owner grant=S next=F
req GetM I needs=M plan=none        grant=M next=M
req GetM S needs=M plan=inv-sharers grant=M next=M
req GetM F needs=M plan=inv-sharers grant=M next=M
req GetM M needs=M plan=inv-owner   grant=M next=M

snp load  I plan=none        next=I
snp load  S plan=none        next=S
snp load  F plan=none        next=F
snp load  M plan=snoop-owner next=F
snp store I plan=none        next=I
snp store S plan=inv-sharers next=I
snp store F plan=inv-sharers next=I
snp store M plan=inv-owner   next=I

evt I plan=none
evt S plan=inv-sharers
evt F plan=inv-sharers
evt M plan=inv-owner
`

// RCCText is release-consistency coherence (GPU-style): the directory
// does not track host caches at all (class NT); hosts self-invalidate on
// acquire and write through dirty lines on release, so global snoops are
// answered directly from the CXL cache (footnote 5 of the paper).
const RCCText = `
protocol RCC
role local
classes NT
params self-invalidate=true

req GetV      NT needs=S plan=none grant=V next=NT
req WrThrough NT needs=M plan=none grant=M next=NT
req Atomic    NT needs=M plan=none grant=M next=NT

snp load  NT plan=none next=NT
snp store NT plan=none next=NT

evt NT plan=none
`

// CXLText is the CXL.mem 3.0 host-side binding (HDM-DB): Table I message
// equivalences plus the conflict handshake that resolves fabric
// reorderings (Fig. 2).
const CXLText = `
protocol CXL
role global
classes I S E M
params conflict-handshake=true silent-clean-evict=true

acq S send=MemRd,S
acq M send=MemRd,A
wb dirty=MemWr,I

gsnp BISnpInv  access=store
gsnp BISnpData access=load
`

// HMESIText is the hierarchical MESI global protocol used as the paper's
// MESI-MESI-MESI baseline: 3-hop, peer-to-peer data responses, and a
// pipelining directory (no conflict handshake; snoops stall in transient
// states instead).
const HMESIText = `
protocol HMESI
role global
classes I S E M
params peer-data=true

acq S send=GGetS
acq M send=GGetM
wb dirty=GPutM clean=GPutS

gsnp GFwdGetM access=store
gsnp GFwdGetS access=load
gsnp GInv     access=store
`

// LocalText returns the embedded text of the local spec named name
// ("mesi", "moesi", "mesif", "rcc"); ok is false for unknown names.
func LocalText(name string) (text string, ok bool) {
	switch name {
	case "mesi", "MESI":
		return MESIText, true
	case "moesi", "MOESI":
		return MOESIText, true
	case "mesif", "MESIF":
		return MESIFText, true
	case "rcc", "RCC":
		return RCCText, true
	}
	return "", false
}

// GlobalText returns the embedded text of the global spec named name
// ("cxl", "hmesi"); ok is false for unknown names.
func GlobalText(name string) (text string, ok bool) {
	switch name {
	case "cxl", "CXL":
		return CXLText, true
	case "hmesi", "HMESI", "mesi", "MESI":
		return HMESIText, true
	}
	return "", false
}

// Local returns a fresh parse of the local spec named name; ok is false
// for unknown names.
func Local(name string) (*Spec, bool) {
	text, ok := LocalText(name)
	if !ok {
		return nil, false
	}
	return MustParse(text), true
}

// Global returns a fresh parse of the global spec named name; ok is
// false for unknown names.
func Global(name string) (*Spec, bool) {
	text, ok := GlobalText(name)
	if !ok {
		return nil, false
	}
	return MustParse(text), true
}

// LocalNames and GlobalNames list the embedded protocols.
func LocalNames() []string { return []string{"mesi", "moesi", "mesif", "rcc"} }

// GlobalNames lists the embedded global protocols.
func GlobalNames() []string { return []string{"cxl", "hmesi"} }
