package hostproto

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"c3/internal/cpu"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
)

// grantDir answers every request a private cache sends, in send order
// and three cycles later, granting what was asked: the minimal
// cooperative directory for driving long random access streams through
// either cache. Some shared grants are overtaken by an Inv, so the L1's
// use-once fill completes ops too.
type grantDir struct {
	k    *sim.Kernel
	port network.Port
	rng  *rand.Rand
}

func (d *grantDir) Send(m *msg.Msg) {
	r := &msg.Msg{Addr: m.Addr, Src: m.Dst, Dst: m.Src}
	switch m.Type {
	case msg.InvAck:
		return
	case msg.GetS:
		r.Type, r.Data = msg.DataS, &mem.Data{}
		switch d.rng.IntN(4) {
		case 0:
			r.Type = msg.DataE
		case 1:
			inv := &msg.Msg{Type: msg.Inv, Addr: m.Addr, Src: m.Dst, Dst: m.Src}
			d.k.After(3, func() { d.port.Recv(inv) })
		}
	case msg.GetM:
		r.Type, r.Data = msg.DataM, &mem.Data{}
	case msg.GetV:
		r.Type, r.Data = msg.DataV, &mem.Data{}
	case msg.PutS, msg.PutE, msg.PutM, msg.PutO, msg.WrThrough:
		r.Type = msg.PutAck
	case msg.SyncAcq, msg.SyncRel:
		r.Type = msg.SyncAck
	case msg.AtomicAdd, msg.AtomicXchg:
		r.Type = msg.AtomicResp
	default:
		panic(fmt.Sprintf("grantDir: unexpected %v", m))
	}
	d.k.After(3, func() { d.port.Recv(r) })
}

// checkCompletions drives a random stream of tracked accesses through
// port from kernel events, as a core does, all with one shared callback,
// and checks the cpu.MemPort contract for tracked requests: each
// completes exactly once, from a kernel event later than the one that
// issued it (never inside Access), with Response.Token equal to
// Request.Token.
func checkCompletions(t *testing.T, k *sim.Kernel, port cpu.MemPort, rng *rand.Rand, next func() cpu.Request) {
	t.Helper()
	const total = 3000
	issuedAt := map[uint64]uint64{} // token -> k.Stepped at Access
	inAccess := false
	completed := 0
	var fail string
	done := func(r cpu.Response) {
		at, ok := issuedAt[r.Token]
		switch {
		case fail != "":
		case inAccess:
			fail = fmt.Sprintf("token %d completed inside Access", r.Token)
		case !ok:
			fail = fmt.Sprintf("completion with unknown or repeated token %d", r.Token)
		case k.Stepped <= at:
			fail = fmt.Sprintf("token %d completed in the event that issued it", r.Token)
		}
		delete(issuedAt, r.Token)
		completed++
	}
	tok := uint64(0)
	var drive func()
	drive = func() {
		for n := rng.IntN(3); n > 0 && tok < total; n-- {
			req := next()
			tok++
			req.Token = tok
			issuedAt[tok] = k.Stepped
			inAccess = true
			port.Access(req, done)
			inAccess = false
		}
		if tok < total {
			k.After(sim.Time(rng.IntN(4)), drive)
		}
	}
	k.Schedule(k.Now()+1, drive)
	k.RunLimit(10_000_000)
	if fail != "" {
		t.Fatal(fail)
	}
	if completed != total || len(issuedAt) != 0 {
		t.Fatalf("%d of %d accesses completed; %d outstanding", completed, total, len(issuedAt))
	}
}

// randAddr picks a word on one of six lines mapping to two sets of the
// test caches (2 KiB, 2 ways), so fills evict and misses defer.
func randAddr(rng *rand.Rand) mem.Addr {
	return mem.Addr(0x4000 + rng.IntN(2)*mem.LineBytes + rng.IntN(3)*16*mem.LineBytes + rng.IntN(8)*8)
}

func TestL1TrackedCompletionsAreLaterEvents(t *testing.T) {
	for _, v := range []Variant{MESI, MOESI, MESIF} {
		rng := rand.New(rand.NewPCG(uint64(v)+1, 5))
		l1, _, k := newTestL1(t, v)
		l1.net = &grantDir{k: k, port: l1, rng: rng}
		kinds := []cpu.Kind{cpu.Load, cpu.Load, cpu.Store, cpu.Store, cpu.RMWAdd, cpu.RMWXchg}
		checkCompletions(t, k, l1, rng, func() cpu.Request {
			if rng.IntN(8) == 0 {
				// An untracked prefetch first: it may complete inline.
				kind := []cpu.Kind{cpu.Prefetch, cpu.PrefetchS}[rng.IntN(2)]
				l1.Access(cpu.Request{Kind: kind, Addr: randAddr(rng)}, func(cpu.Response) {})
			}
			return cpu.Request{Kind: kinds[rng.IntN(len(kinds))], Addr: randAddr(rng), Val: 1}
		})
		if l1.Misses == 0 || l1.Misses == l1.Accesses {
			t.Fatalf("%v: %d misses of %d accesses; want a mix of hits and misses", v, l1.Misses, l1.Accesses)
		}
	}
}

func TestRCCTrackedCompletionsAreLaterEvents(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	l1, _, k := newTestRCC(t)
	l1.net = &grantDir{k: k, port: l1, rng: rng}
	kinds := []cpu.Kind{cpu.Load, cpu.Load, cpu.Store, cpu.Store, cpu.RMWAdd, cpu.RMWXchg,
		cpu.Fence, cpu.Acquire, cpu.Release}
	checkCompletions(t, k, l1, rng, func() cpu.Request {
		req := cpu.Request{Kind: kinds[rng.IntN(len(kinds))], Val: 1}
		if req.Kind.IsMem() {
			req.Addr = randAddr(rng)
			req.Acq = req.Kind == cpu.Load && rng.IntN(4) == 0
			req.Rel = req.Kind == cpu.Store && rng.IntN(4) == 0
		}
		return req
	})
}
