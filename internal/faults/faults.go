// Package faults models an unreliable CXL fabric: a seeded, deterministic
// fault plan that the network consults on every cross-cluster link
// traversal. Real CXL links are not the lossless channel the paper's
// evaluation assumes — the link layer retries on CRC error, stalls on
// credit exhaustion, and poisons data on uncorrectable failure — and the
// C3 ordering assumptions (FIFO completions, the BIConflict handshake)
// are exactly what such faults stress.
//
// A Plan describes what goes wrong (drop / duplication / delay-spike
// probabilities, link-down stall windows, per-link overrides); an
// Injector turns the plan into per-link deterministic decisions. Each
// directed (src, dst, vnet) link owns an independent Stream, a PCG
// stream seeded from (Plan.Seed, link key) that the link itself holds,
// so one link's traffic never perturbs another's fault schedule and a
// run is reproducible for any event interleaving that keeps per-link
// send order (which the single-threaded kernel guarantees).
//
// Recovery from these faults — sequence numbers, ack/timeout retry, dedup
// and poison-on-exhaustion — lives in internal/network's reliable
// delivery shim; this package only decides fates and keeps the books.
package faults

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/sim"
)

// Window is a half-open simulated-time interval [From, To) during which a
// link delivers nothing (the model of a link-down / credit-exhaustion
// stall: every flit in the window is lost and must be retried).
type Window struct {
	From, To sim.Time
}

func (w Window) contains(t sim.Time) bool { return t >= w.From && t < w.To }

// Rates is one set of fault probabilities. All probabilities are
// per-traversal (a retransmission rolls again).
type Rates struct {
	// Drop is the probability a message is lost in flight.
	Drop float64
	// Dup is the probability a message is delivered twice (the second
	// copy one flit later — the shape a replayed link-layer flit takes).
	Dup float64
	// Delay is the probability of an extra latency spike, drawn
	// uniformly from [1, DelayMax] cycles (DelayMax 0 -> 100).
	Delay float64
	// DelayMax bounds the delay spike.
	DelayMax sim.Time
	// Stalls lists link-down windows; inside one, every traversal drops.
	Stalls []Window
}

func (r Rates) active() bool {
	return r.Drop > 0 || r.Dup > 0 || r.Delay > 0 || len(r.Stalls) > 0
}

// LinkRates overrides the plan's default rates for one directed link
// family. msg.None wildcards an endpoint.
type LinkRates struct {
	Src, Dst msg.NodeID
	Rates
}

// Crash kills one host cluster at a fixed tick: its cores halt, every
// network port it owns goes permanently down, and — after the declare
// delay — the surviving side runs coherence-state reclamation (the CXL
// host-isolation / surprise-link-down analogue). Rejoin, when non-zero,
// is the absolute tick the cluster's links come back up (controllers
// restart cold; the crashed cores stay dead — a rejoin restores the
// fabric, not the workload).
type Crash struct {
	// Host is the cluster index to kill (cluster 0 is never crashable in
	// litmus campaigns: it homes the outcome collector).
	Host int
	// At is the crash tick.
	At sim.Time
	// Rejoin, when > At, brings the cluster's links back up at that tick.
	Rejoin sim.Time
}

// Plan is one deterministic fault schedule.
type Plan struct {
	// Seed roots every per-link PCG stream.
	Seed uint64
	// Rates apply to every faulty (cross-cluster) link unless overridden.
	Rates
	// PerLink overrides rates for specific directed links (first match
	// wins; msg.None wildcards).
	PerLink []LinkRates
	// MaxRetries caps the reliable shim's retransmissions before a
	// message poisons its line (0 -> DefaultMaxRetries).
	MaxRetries int
	// Crashes lists host-cluster crash events (deterministic: the ticks
	// are plan constants, never drawn from the fault streams).
	Crashes []Crash
}

// CrashHost appends a permanent crash of host h at tick at and returns
// the plan for chaining.
func (p *Plan) CrashHost(h int, at sim.Time) *Plan {
	p.Crashes = append(p.Crashes, Crash{Host: h, At: at})
	return p
}

// DefaultMaxRetries is the retry cap before poison (8 retransmissions
// with doubling backoff spans ~25k cycles on a Table III cross link —
// far beyond any transient, so exhaustion means the link is dead).
const DefaultMaxRetries = 8

// DefaultDelayMax is the delay-spike bound when a plan leaves it zero.
const DefaultDelayMax = sim.Time(100)

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	if p.Rates.active() || len(p.Crashes) > 0 {
		return true
	}
	for _, l := range p.PerLink {
		if l.Rates.active() {
			return true
		}
	}
	return false
}

// Retries returns the effective retry cap.
func (p *Plan) Retries() int {
	if p == nil || p.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return p.MaxRetries
}

// String renders the plan compactly ("drop=0.01,dup=0.01,stall=0:60000"),
// in ParsePlan's syntax; deterministic, for report keys.
func (p *Plan) String() string {
	if p == nil {
		return "none"
	}
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("drop", p.Drop)
	add("dup", p.Dup)
	add("delay", p.Delay)
	if p.DelayMax > 0 {
		parts = append(parts, fmt.Sprintf("delaymax=%d", p.DelayMax))
	}
	for _, w := range p.Stalls {
		parts = append(parts, fmt.Sprintf("stall=%d:%d", w.From, w.To))
	}
	for _, c := range p.Crashes {
		if c.Rejoin > 0 {
			parts = append(parts, fmt.Sprintf("crash=%d@%d:%d", c.Host, c.At, c.Rejoin))
		} else {
			parts = append(parts, fmt.Sprintf("crash=%d@%d", c.Host, c.At))
		}
	}
	if p.MaxRetries > 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", p.MaxRetries))
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the command-line plan syntax: comma-separated k=v
// pairs among drop, dup, delay (probabilities in [0,1]), delaymax
// (cycles), stall=from:to (repeatable), crash=host@tick or
// crash=host@tick:rejoin (repeatable, see ParseCrash), retries, seed.
// "none" or "" yields a zero plan (Enabled() == false).
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("faults: %q: want key=value", field)
		}
		switch k {
		case "drop", "dup", "delay":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
				return p, fmt.Errorf("faults: %s=%q: want probability in [0,1]", k, v)
			}
			switch k {
			case "drop":
				p.Drop = f
			case "dup":
				p.Dup = f
			case "delay":
				p.Delay = f
			}
		case "delaymax":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return p, fmt.Errorf("faults: delaymax=%q: want cycles", v)
			}
			p.DelayMax = sim.Time(n)
		case "stall":
			from, to, ok := strings.Cut(v, ":")
			if !ok {
				return p, fmt.Errorf("faults: stall=%q: want from:to", v)
			}
			f, err1 := strconv.ParseUint(from, 10, 64)
			t, err2 := strconv.ParseUint(to, 10, 64)
			if err1 != nil || err2 != nil || t <= f {
				return p, fmt.Errorf("faults: stall=%q: want from:to with to > from", v)
			}
			p.Stalls = append(p.Stalls, Window{sim.Time(f), sim.Time(t)})
		case "crash":
			c, err := ParseCrash(v)
			if err != nil {
				return p, fmt.Errorf("faults: crash=%w", err)
			}
			p.Crashes = append(p.Crashes, c)
		case "retries":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return p, fmt.Errorf("faults: retries=%q: want positive count", v)
			}
			p.MaxRetries = n
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return p, fmt.Errorf("faults: seed=%q: want uint64", v)
			}
			p.Seed = n
		default:
			return p, fmt.Errorf("faults: unknown key %q (want drop|dup|delay|delaymax|stall|crash|retries|seed)", k)
		}
	}
	return p, nil
}

// ParseCrash parses one crash entry, host@tick or host@tick:rejoin: a
// non-negative host index, a positive crash tick and, when given, a
// later rejoin tick. An error quotes the entry as given.
func ParseCrash(s string) (Crash, error) {
	host, when, ok := strings.Cut(s, "@")
	if !ok {
		return Crash{}, fmt.Errorf("%q: want host@tick or host@tick:rejoin", s)
	}
	h, err := strconv.Atoi(host)
	if err != nil || h < 0 {
		return Crash{}, fmt.Errorf("%q: want non-negative host index", s)
	}
	at, rejoin, hasRejoin := strings.Cut(when, ":")
	a, err := strconv.ParseUint(at, 10, 64)
	if err != nil || a == 0 {
		return Crash{}, fmt.Errorf("%q: want positive crash tick", s)
	}
	c := Crash{Host: h, At: sim.Time(a)}
	if hasRejoin {
		r, err := strconv.ParseUint(rejoin, 10, 64)
		if err != nil || sim.Time(r) <= c.At {
			return Crash{}, fmt.Errorf("%q: want rejoin tick > crash tick", s)
		}
		c.Rejoin = sim.Time(r)
	}
	return c, nil
}

// Fate is the injector's verdict on one link traversal.
type Fate struct {
	// Drop loses the message (the sender's retry shim recovers it).
	Drop bool
	// Dup delivers a second copy (the receiver's dedup suppresses it).
	Dup bool
	// Delay adds this many cycles of extra latency.
	Delay sim.Time
}

// Stats counts injected faults and the recovery work they caused. The
// injector owns the fault counters; the network's reliable shim
// increments the recovery ones (Retries, Poisoned, Acks, AckDrops).
type Stats struct {
	Decisions  uint64 // traversals consulted
	Drops      uint64 // messages lost to the rate
	Dups       uint64 // duplicate deliveries injected
	Delays     uint64 // delay spikes injected
	StallDrops uint64 // messages lost to stall windows
	Retries    uint64 // retransmissions performed by the shim
	Poisoned   uint64 // messages that exhausted retries
	Acks       uint64 // shim acks delivered
	AckDrops   uint64 // shim acks lost to the plan
}

// Injector evaluates a Plan. It keeps the plan, the counters and the
// poison set; the per-link state lives with the links, one Stream each
// (see Stream).
type Injector struct {
	plan Plan

	Stats Stats

	// poisoned is created by the first RecordPoison.
	poisoned map[mem.LineAddr]struct{}
}

// NewInjector compiles a plan.
func NewInjector(p Plan) *Injector {
	if p.DelayMax == 0 {
		p.DelayMax = DefaultDelayMax
	}
	return &Injector{plan: p}
}

// Plan returns the compiled plan.
func (in *Injector) Plan() *Plan { return &in.plan }

// MaxRetries returns the shim's retry cap under this plan.
func (in *Injector) MaxRetries() int { return in.plan.Retries() }

// splitmix64 finalizes a link key into an independent PCG stream id.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is the fault schedule of one directed (src, dst, vnet) link: a
// PCG stream seeded from (Plan.Seed, link key) and the rates the plan
// assigns that link. The caller keeps it with the link (the network
// holds one per faulty link) and passes it to every Decide for that
// link, so streams of different links never share state.
type Stream struct {
	pcg   rand.PCG
	rng   rand.Rand
	rates Rates
}

// Stream compiles the fault stream of the directed link (src, dst,
// vnet). Two calls for the same link return independent streams that
// draw the same fates.
func (in *Injector) Stream(src, dst msg.NodeID, vnet msg.VNet) *Stream {
	rates := in.plan.Rates
	for _, o := range in.plan.PerLink {
		if (o.Src == msg.None || o.Src == src) && (o.Dst == msg.None || o.Dst == dst) {
			rates = o.Rates
			break
		}
	}
	if rates.DelayMax == 0 {
		rates.DelayMax = in.plan.DelayMax
	}
	s := &Stream{rates: rates}
	s.pcg.Seed(in.plan.Seed, splitmix64(uint64(int64(src))<<24^uint64(int64(dst))<<8^uint64(vnet)))
	s.rng = *rand.New(&s.pcg)
	return s
}

// roll draws one fate from the stream without touching counters.
func (s *Stream) roll(now sim.Time) (f Fate, stalled bool) {
	for _, w := range s.rates.Stalls {
		if w.contains(now) {
			return Fate{Drop: true}, true
		}
	}
	if s.rates.Drop > 0 && s.rng.Float64() < s.rates.Drop {
		return Fate{Drop: true}, false
	}
	if s.rates.Dup > 0 && s.rng.Float64() < s.rates.Dup {
		f.Dup = true
	}
	if s.rates.Delay > 0 && s.rng.Float64() < s.rates.Delay {
		f.Delay = 1 + sim.Time(s.rng.Uint64N(uint64(s.rates.DelayMax)))
	}
	return f, false
}

// Decide rolls the fate of one traversal of s's link at time now and
// counts it. A reliable-shim ack (ack true) rides the stream of the link
// it travels, like payload traffic, but is counted under Acks/AckDrops
// and only drop and delay apply to it (a duplicated ack is harmless and
// not modelled).
func (in *Injector) Decide(s *Stream, now sim.Time, ack bool) Fate {
	f, stalled := s.roll(now)
	if ack {
		if f.Drop {
			in.Stats.AckDrops++
		} else {
			in.Stats.Acks++
		}
		f.Dup = false
		return f
	}
	in.Stats.Decisions++
	switch {
	case stalled:
		in.Stats.StallDrops++
	case f.Drop:
		in.Stats.Drops++
	default:
		if f.Dup {
			in.Stats.Dups++
		}
		if f.Delay > 0 {
			in.Stats.Delays++
		}
	}
	return f
}

// RecordPoison marks a line as carrying poisoned data.
func (in *Injector) RecordPoison(a mem.LineAddr) {
	in.Stats.Poisoned++
	if in.poisoned == nil {
		in.poisoned = make(map[mem.LineAddr]struct{})
	}
	in.poisoned[a] = struct{}{}
}

// PoisonedLines returns the poisoned lines, sorted.
func (in *Injector) PoisonedLines() []mem.LineAddr {
	out := make([]mem.LineAddr, 0, len(in.poisoned))
	for a := range in.poisoned {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Poisoned reports whether line a carries poisoned data.
func (in *Injector) Poisoned(a mem.LineAddr) bool {
	_, ok := in.poisoned[a]
	return ok
}
