package cpu

import (
	"encoding/json"
	"math/rand/v2"
	"testing"

	"c3/internal/mem"
	"c3/internal/sim"
)

// fakeMem is a MemPort backed by a flat map with per-access fixed latency
// and an optional per-address latency override. It records the order in
// which accesses reach "memory", which is what the MCM tests assert on.
// Like a real L1 it completes tracked requests from a later event with
// the request's token echoed.
type fakeMem struct {
	k       *sim.Kernel
	store   map[mem.Addr]uint64
	lat     sim.Time
	latFor  map[mem.Addr]sim.Time
	arrived []Request
	sync    bool
}

func newFakeMem(k *sim.Kernel, lat sim.Time) *fakeMem {
	return &fakeMem{k: k, store: make(map[mem.Addr]uint64), lat: lat,
		latFor: make(map[mem.Addr]sim.Time)}
}

func (f *fakeMem) NeedsSyncOps() bool { return f.sync }

func (f *fakeMem) Access(req Request, done func(Response)) {
	if req.Kind == Prefetch || req.Kind == PrefetchS {
		// Warming hint: no architectural effect in the fake.
		done(Response{})
		return
	}
	lat := f.lat
	if l, ok := f.latFor[req.Addr]; ok {
		lat = l
	}
	f.k.After(lat, func() {
		f.arrived = append(f.arrived, req)
		var v uint64
		switch req.Kind {
		case Load:
			v = f.store[req.Addr]
		case Store:
			f.store[req.Addr] = req.Val
		case RMWAdd:
			v = f.store[req.Addr]
			f.store[req.Addr] = v + req.Val
		case RMWXchg:
			v = f.store[req.Addr]
			f.store[req.Addr] = req.Val
		}
		done(Response{Token: req.Token, Val: v, Missed: lat > 2, MissLatency: lat})
	})
}

func run(t *testing.T, k *sim.Kernel, cores ...*Core) {
	t.Helper()
	for _, c := range cores {
		c.Start()
	}
	k.RunLimit(4_000_000)
	for _, c := range cores {
		if !c.Finished() {
			t.Fatalf("core %d did not finish", c.ID)
		}
	}
}

func TestSingleCoreSequence(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 10)
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 7},
		{Kind: Load, Addr: 0x100, Reg: 1},
	})
	c := New(0, k, DefaultConfig(TSO), fm, src, nil)
	run(t, k, c)
	if src.Regs[1].Val != 7 {
		t.Fatalf("load after store to same addr read %d, want 7 (forwarding)", src.Regs[1].Val)
	}
	if c.Retired != 2 {
		t.Fatalf("Retired = %d, want 2", c.Retired)
	}
}

func TestStoreForwardingFromSB(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 200) // slow memory: store lingers in SB
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 9},
		{Kind: Load, Addr: 0x100, Reg: 1},
	})
	c := New(0, k, DefaultConfig(TSO), fm, src, nil)
	run(t, k, c)
	if src.Regs[1].Val != 9 {
		t.Fatalf("SB forwarding returned %d, want 9", src.Regs[1].Val)
	}
}

func TestTSOStoreDrainFIFO(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	// Make the first store slow: under TSO the second must still arrive
	// after it.
	fm.latFor[0x100] = 100
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 1},
		{Kind: Store, Addr: 0x200, Val: 2},
	})
	c := New(0, k, DefaultConfig(TSO), fm, src, nil)
	run(t, k, c)
	if len(fm.arrived) != 2 || fm.arrived[0].Addr != 0x100 {
		t.Fatalf("TSO store order violated: %+v", fm.arrived)
	}
}

func TestWMOStoreDrainCanReorder(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.latFor[0x100] = 100
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 1},
		{Kind: Store, Addr: 0x200, Val: 2},
	})
	c := New(0, k, DefaultConfig(WMO), fm, src, nil)
	run(t, k, c)
	if fm.arrived[0].Addr != 0x200 {
		t.Fatalf("WMO should let the fast store drain first: %+v", fm.arrived)
	}
}

func TestWMOReleaseOrdersStores(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.latFor[0x100] = 100
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 1},
		{Kind: Store, Addr: 0x200, Val: 2, Rel: true},
	})
	c := New(0, k, DefaultConfig(WMO), fm, src, nil)
	run(t, k, c)
	if fm.arrived[0].Addr != 0x100 {
		t.Fatalf("release store drained before older store: %+v", fm.arrived)
	}
}

func TestFenceOrdersStores(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.latFor[0x100] = 100
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 1},
		{Kind: Fence},
		{Kind: Store, Addr: 0x200, Val: 2},
	})
	c := New(0, k, DefaultConfig(WMO), fm, src, nil)
	run(t, k, c)
	if fm.arrived[0].Addr != 0x100 {
		t.Fatalf("fence failed to order stores: %+v", fm.arrived)
	}
}

func TestTSOLoadsInOrder(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.latFor[0x100] = 100 // first load slow
	src := NewSliceSource([]Instr{
		{Kind: Load, Addr: 0x100, Reg: 1},
		{Kind: Load, Addr: 0x200, Reg: 2},
	})
	c := New(0, k, DefaultConfig(TSO), fm, src, nil)
	run(t, k, c)
	if fm.arrived[0].Addr != 0x100 {
		t.Fatalf("TSO load-load order violated: %+v", fm.arrived)
	}
}

func TestWMOLoadsReorder(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.latFor[0x100] = 100
	src := NewSliceSource([]Instr{
		{Kind: Load, Addr: 0x100, Reg: 1},
		{Kind: Load, Addr: 0x200, Reg: 2},
	})
	c := New(0, k, DefaultConfig(WMO), fm, src, nil)
	run(t, k, c)
	if fm.arrived[0].Addr != 0x200 {
		t.Fatalf("WMO loads should issue out of order: %+v", fm.arrived)
	}
}

func TestAcquireBlocksYoungerLoads(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.latFor[0x100] = 100
	src := NewSliceSource([]Instr{
		{Kind: Load, Addr: 0x100, Reg: 1, Acq: true},
		{Kind: Load, Addr: 0x200, Reg: 2},
	})
	c := New(0, k, DefaultConfig(WMO), fm, src, nil)
	run(t, k, c)
	if fm.arrived[0].Addr != 0x100 {
		t.Fatalf("acquire load failed to order younger load: %+v", fm.arrived)
	}
}

func TestTSOStoreLoadRelaxed(t *testing.T) {
	// The signature TSO relaxation: a younger load to a different address
	// may complete while an older store sits in the store buffer.
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.latFor[0x100] = 200 // slow store
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 1},
		{Kind: Load, Addr: 0x200, Reg: 1},
	})
	c := New(0, k, DefaultConfig(TSO), fm, src, nil)
	run(t, k, c)
	if fm.arrived[0].Kind != Load {
		t.Fatalf("TSO should let the load bypass the buffered store: %+v", fm.arrived)
	}
}

func TestSCStoreLoadOrdered(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.latFor[0x100] = 200
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 1},
		{Kind: Load, Addr: 0x200, Reg: 1},
	})
	c := New(0, k, DefaultConfig(SC), fm, src, nil)
	run(t, k, c)
	if fm.arrived[0].Kind != Store {
		t.Fatalf("SC must not reorder store->load: %+v", fm.arrived)
	}
}

func TestRMWDrainsSBAndBlocks(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.latFor[0x100] = 100
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 1},
		{Kind: RMWAdd, Addr: 0x200, Val: 5, Reg: 1},
		{Kind: Load, Addr: 0x300, Reg: 2},
	})
	c := New(0, k, DefaultConfig(WMO), fm, src, nil)
	run(t, k, c)
	if fm.arrived[0].Addr != 0x100 || fm.arrived[1].Kind != RMWAdd || fm.arrived[2].Addr != 0x300 {
		t.Fatalf("RMW fencing violated: %+v", fm.arrived)
	}
	if src.Regs[1].Val != 0 {
		t.Fatalf("RMWAdd returned %d, want old value 0", src.Regs[1].Val)
	}
	if fm.store[0x200] != 5 {
		t.Fatalf("RMWAdd stored %d, want 5", fm.store[0x200])
	}
}

func TestRMWXchg(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.store[0x200] = 3
	src := NewSliceSource([]Instr{{Kind: RMWXchg, Addr: 0x200, Val: 9, Reg: 1}})
	c := New(0, k, DefaultConfig(TSO), fm, src, nil)
	run(t, k, c)
	if src.Regs[1].Val != 3 || fm.store[0x200] != 9 {
		t.Fatalf("xchg got %d/mem %d, want 3/9", src.Regs[1].Val, fm.store[0x200])
	}
}

func TestCtrlDepBlocksFetch(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 50)
	seen := 0
	spin := 0
	src := &FuncSource{
		NextFn: func() (Instr, bool) {
			seen++
			switch {
			case spin < 3:
				return Instr{Kind: Load, Addr: 0x100, Reg: 1, CtrlDep: true}, true
			case seen <= 10:
				return Instr{Kind: Store, Addr: 0x200, Val: 1}, true
			}
			return Instr{}, false
		},
		CompleteFn: func(in Instr, _ uint64) {
			if in.Kind == Load {
				spin++
			}
		},
	}
	c := New(0, k, DefaultConfig(WMO), fm, src, nil)
	run(t, k, c)
	// The three spin loads must have been fetched one at a time: the
	// store can only arrive after all three loads.
	var loads, firstStore int
	for i, r := range fm.arrived {
		if r.Kind == Load {
			loads++
		} else if firstStore == 0 {
			firstStore = i
		}
	}
	if loads != 3 || firstStore < 3 {
		t.Fatalf("ctrl-dep spin violated: %+v", fm.arrived)
	}
}

func TestSyncOpsSentToRCCCache(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.sync = true
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 1},
		{Kind: Release},
		{Kind: Acquire},
	})
	c := New(0, k, DefaultConfig(WMO), fm, src, nil)
	run(t, k, c)
	var kinds []Kind
	for _, r := range fm.arrived {
		kinds = append(kinds, r.Kind)
	}
	want := []Kind{Store, Release, Acquire}
	if len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("sync ops not forwarded to cache: %v", kinds)
	}
}

func TestObserveCountsStoresOnce(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	src := NewSliceSource([]Instr{
		{Kind: Store, Addr: 0x100, Val: 1},
		{Kind: Load, Addr: 0x200, Reg: 1},
	})
	c := New(0, k, DefaultConfig(TSO), fm, src, nil)
	counts := map[Kind]int{}
	c.Observe = func(s OpStats) { counts[s.Kind]++ }
	run(t, k, c)
	if counts[Store] != 1 || counts[Load] != 1 {
		t.Fatalf("observed %v, want 1 store and 1 load", counts)
	}
}

func TestFinishCallback(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	done := false
	src := NewSliceSource([]Instr{{Kind: Store, Addr: 0x100, Val: 1}})
	c := New(0, k, DefaultConfig(TSO), fm, src, func() { done = true })
	run(t, k, c)
	if !done || c.FinishedAt == 0 {
		t.Fatal("finish callback not invoked or time unset")
	}
}

func TestMCMParsingAndStrings(t *testing.T) {
	for _, c := range []struct {
		in   string
		want MCM
	}{{"arm", WMO}, {"tso", TSO}, {"sc", SC}, {"weak", WMO}} {
		got, err := ParseMCM(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMCM(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseMCM("bogus"); err == nil {
		t.Error("ParseMCM should reject unknown names")
	}
	if WMO.String() != "ARM" || TSO.String() != "TSO" {
		t.Error("MCM String() mismatch")
	}
}

// TestMCMJSONRoundTrip: an MCM travels through JSON as its name, comes
// back as the same value, and an unknown name or value is an error, not
// a silent WMO.
func TestMCMJSONRoundTrip(t *testing.T) {
	in := [3]MCM{WMO, TSO, SC}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `["ARM","TSO","SC"]` {
		t.Fatalf("marshaled %s, want [\"ARM\",\"TSO\",\"SC\"]", b)
	}
	var out [3]MCM
	if err := json.Unmarshal(b, &out); err != nil || out != in {
		t.Fatalf("round trip gave %v, %v; want %v", out, err, in)
	}
	got := TSO
	if err := json.Unmarshal([]byte(`"bogus"`), &got); err == nil || got != TSO {
		t.Errorf("unmarshaling an unknown name gave %v, %v; want an error and TSO unchanged", got, err)
	}
	if _, err := json.Marshal(MCM(7)); err == nil {
		t.Error("marshaling MCM(7) succeeded")
	}
}

func TestWindowFillsWithoutDeadlock(t *testing.T) {
	// Saturate the window and SB with many independent ops.
	k := &sim.Kernel{}
	fm := newFakeMem(k, 30)
	var prog []Instr
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			prog = append(prog, Instr{Kind: Store, Addr: mem.Addr(0x1000 + i*64), Val: uint64(i)})
		} else {
			prog = append(prog, Instr{Kind: Load, Addr: mem.Addr(0x1000 + i*64), Reg: i})
		}
	}
	for _, m := range []MCM{SC, TSO, WMO} {
		k := &sim.Kernel{}
		fm = newFakeMem(k, 30)
		c := New(0, k, DefaultConfig(m), fm, NewSliceSource(prog), nil)
		run(t, k, c)
		if c.Retired != 200 {
			t.Fatalf("%v: retired %d, want 200", m, c.Retired)
		}
	}
}

func TestWMOFasterThanSC(t *testing.T) {
	mk := func(m MCM) sim.Time {
		k := &sim.Kernel{}
		fm := newFakeMem(k, 100)
		var prog []Instr
		for i := 0; i < 64; i++ {
			prog = append(prog, Instr{Kind: Load, Addr: mem.Addr(0x1000 + i*64), Reg: i})
		}
		c := New(0, k, DefaultConfig(m), fm, NewSliceSource(prog), nil)
		c.Start()
		k.RunLimit(0)
		return c.FinishedAt
	}
	wmo, tso, sc := mk(WMO), mk(TSO), mk(SC)
	if !(wmo < tso && tso <= sc) {
		t.Fatalf("expected WMO < TSO <= SC on a load-miss stream, got %d / %d / %d", wmo, tso, sc)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) sim.Time {
		k := &sim.Kernel{}
		fm := newFakeMem(k, 40)
		var prog []Instr
		for i := 0; i < 40; i++ {
			prog = append(prog, Instr{Kind: Load, Addr: mem.Addr(0x1000 + i*64), Reg: i})
		}
		cfg := DefaultConfig(WMO)
		cfg.IssueJitter, cfg.DrainJitter, cfg.Seed = 300, 300, seed
		c := New(0, k, cfg, fm, NewSliceSource(prog), nil)
		c.Start()
		k.RunLimit(0)
		return c.FinishedAt
	}
	if run(5) != run(5) {
		t.Fatal("same seed must reproduce timing exactly")
	}
	same := true
	for s := int64(1); s < 6; s++ {
		if run(s) != run(s+100) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds never changed timing — jitter inert?")
	}
}

func TestPrefetchSkippedForSyncCaches(t *testing.T) {
	// RCC-style caches (NeedsSyncOps) must not receive RFO prefetches:
	// their stores are local writes, not ownership acquisitions.
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	fm.sync = true
	src := NewSliceSource([]Instr{{Kind: Store, Addr: 0x100, Val: 1}})
	c := New(0, k, DefaultConfig(TSO), fm, src, nil)
	run(t, k, c)
	for _, r := range fm.arrived {
		if r.Kind == Prefetch || r.Kind == PrefetchS {
			t.Fatalf("prefetch sent to a sync cache: %v", r)
		}
	}
}

// TestKillDropsLocalCompletions: a store retires into the store buffer
// with a one-cycle local completion; a crash in between must leave the
// op never observed and never retired, like an in-flight L1 access.
func TestKillDropsLocalCompletions(t *testing.T) {
	k := &sim.Kernel{}
	fm := newFakeMem(k, 5)
	completed := 0
	n := 0
	src := &FuncSource{
		NextFn: func() (Instr, bool) {
			n++
			return Instr{Kind: Store, Addr: 0x100, Val: 1}, n == 1
		},
		CompleteFn: func(Instr, uint64) { completed++ },
	}
	c := New(0, k, DefaultConfig(WMO), fm, src, nil)
	observed := 0
	c.Observe = func(OpStats) { observed++ }
	c.Start()
	k.Step() // the pump: fetch, issue into the SB, local completion queued
	if k.Pending() == 0 {
		t.Fatal("no local completion pending after the store issued")
	}
	c.Kill()
	k.RunLimit(1000)
	if c.Retired != 0 || completed != 0 || observed != 0 {
		t.Fatalf("killed core retired %d, completed %d, observed %d ops; want none", c.Retired, completed, observed)
	}
}

// olderBlocks is the pairwise ordering rule the one-pass summary
// (olderOps) implements: whether older op o, while incomplete, must
// complete before younger op y may proceed under model m.
func olderBlocks(m MCM, o, y *uop) bool {
	if o.done {
		return false
	}
	ok, yk := o.in.Kind, y.in.Kind
	if ok == Fence || ok == Acquire || ok == Release || ok.IsRMW() {
		return true
	}
	if ok.IsMem() && yk.IsMem() && o.in.Addr.Line() == y.in.Addr.Line() {
		return true
	}
	if o.in.Acq && ok == Load {
		return true
	}
	switch m {
	case SC:
		return true
	case TSO:
		return ok == Load || ok.IsRMW()
	}
	return false
}

// TestOnePassReadinessMatchesPairwiseRule checks the issue stage's
// summary of older ops against the pairwise rule on random windows: for
// every op, "blocked" must equal "some older op blocks it", and
// "incomplete" must equal "some older op is not done", under SC, TSO and
// WMO. Windows longer than the summary's fixed line array exercise its
// spill path.
func TestOnePassReadinessMatchesPairwiseRule(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	kinds := []Kind{Load, Store, RMWAdd, RMWXchg, Fence, Acquire, Release}
	for iter := 0; iter < 20000; iter++ {
		m := []MCM{SC, TSO, WMO}[iter%3]
		n := 1 + rng.IntN(48)
		window := make([]*uop, n)
		for i := range window {
			u := &uop{seq: uint64(i)}
			u.in.Kind = kinds[rng.IntN(len(kinds))]
			if u.in.Kind.IsMem() {
				// Few lines, several words each: same-line and
				// same-address collisions are common.
				u.in.Addr = mem.Addr(0x1000 + rng.IntN(6)*mem.LineBytes + rng.IntN(8)*8)
			}
			u.in.Acq = u.in.Kind == Load && rng.IntN(4) == 0
			u.done = rng.IntN(3) == 0
			u.issued = u.done || rng.IntN(2) == 0
			window[i] = u
		}
		older := olderOps{mcm: m}
		for i, u := range window {
			wantBlocked, wantIncomplete := false, false
			for _, o := range window[:i] {
				wantBlocked = wantBlocked || olderBlocks(m, o, u)
				wantIncomplete = wantIncomplete || !o.done
			}
			if got := older.blocks(u); got != wantBlocked {
				t.Fatalf("%v window %d op %d (%v %#x): blocked=%v, pairwise rule says %v",
					m, iter, i, u.in.Kind, u.in.Addr, got, wantBlocked)
			}
			if older.incomplete != wantIncomplete {
				t.Fatalf("%v window %d op %d: incomplete=%v, want %v", m, iter, i, older.incomplete, wantIncomplete)
			}
			older.add(u)
		}
	}
}
