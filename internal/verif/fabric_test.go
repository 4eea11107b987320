package verif

import (
	"fmt"
	"slices"
	"testing"

	"c3/internal/fp"
	"c3/internal/msg"
	"c3/internal/network"
)

// TestChoiceFabricLinkOrdering: Send orders each message by its link's
// LinkConfig the way the timed network does. A CrossVNetOrder link is
// one FIFO across vnets; an Unordered link puts requests and snoops in
// the bag and keeps a FIFO per vnet for responses; any other link is a
// FIFO per vnet; a pair no Connect linked panics.
func TestChoiceFabricLinkOrdering(t *testing.T) {
	f := &ChoiceFabric{}
	perVNet := network.CrossCluster()
	perVNet.Unordered = false
	f.Connect(1, 2, network.CrossCluster())
	f.Connect(2, 3, network.IntraCluster())
	f.Connect(2, 4, perVNet)

	send := func(src, dst msg.NodeID, v msg.VNet) *msg.Msg {
		m := &msg.Msg{Src: src, Dst: dst, VNet: v}
		f.Send(m)
		return m
	}
	req12, snp12 := send(1, 2, msg.VReq), send(1, 2, msg.VSnp)
	rsp12 := send(1, 2, msg.VRsp)
	send(1, 2, msg.VRsp)
	req23 := send(2, 3, msg.VReq)
	send(2, 3, msg.VRsp)
	send(2, 4, msg.VReq)
	send(2, 4, msg.VRsp)

	want := []Action{
		{Channel: chKey{1, 2, msg.VRsp}},
		{Channel: chKey{2, 3, 0}},
		{Channel: chKey{2, 4, msg.VReq}},
		{Channel: chKey{2, 4, msg.VRsp}},
		{FromBag: true, Index: 0},
		{FromBag: true, Index: 1},
	}
	acts := f.Enabled()
	if len(acts) != len(want) {
		t.Fatalf("enabled %+v, want %+v", acts, want)
	}
	for i := range want {
		if acts[i] != want[i] {
			t.Fatalf("enabled[%d] = %+v, want %+v", i, acts[i], want[i])
		}
	}
	if f.Peek(acts[0]) != rsp12 || f.Peek(acts[1]) != req23 ||
		f.Peek(acts[4]) != req12 || f.Peek(acts[5]) != snp12 {
		t.Fatal("a channel head or bag entry is not the message sent first on it")
	}
	if got := f.take(acts[5]); got != snp12 {
		t.Fatalf("taking the bagged snoop returned %v", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a send between unlinked nodes did not panic")
		}
	}()
	send(3, 5, msg.VReq)
}

// TestChoiceFabricCloneIsolation: a clone shares every backing with the
// fabric it was cloned from, so each side must copy what it writes.
// Driven alike, either side first, both sides must stay equal to
// independent deep copies — in Enabled, in every action's Peek, and in
// their hash from scratch and incremental hash under each renaming —
// through a FIFO delivery, a delivery from the middle of the bag (which
// must not compact a shared backing in place), sends to an existing
// channel, a new channel and the bag (which must not append into a
// shared backing), and a delivery that drains a channel. The deliveries
// run before the sends and after them, so that each write meets the
// backings still shared.
func TestChoiceFabricCloneIsolation(t *testing.T) {
	type op struct {
		name string
		take *Action
		send msg.Msg // sent, as a fresh message per side, when take is nil
	}
	takes := []op{
		{name: "deliver a FIFO head", take: &Action{Channel: chKey{1, 2, msg.VRsp}}},
		{name: "deliver a middle bag entry", take: &Action{FromBag: true, Index: 1}},
	}
	sends := []op{
		{name: "send to an existing channel", send: msg.Msg{Src: 1, Dst: 2, VNet: msg.VRsp}},
		{name: "send to a new channel", send: msg.Msg{Src: 2, Dst: 4, VNet: msg.VReq}},
		{name: "send into the bag", send: msg.Msg{Src: 1, Dst: 2, VNet: msg.VSnp}},
	}
	drain := op{name: "drain a channel", take: &Action{Channel: chKey{2, 3, 0}}}
	for _, sendFirst := range []bool{false, true} {
		ops := append(append(slices.Clone(takes), sends...), drain)
		if sendFirst {
			ops = append(append(slices.Clone(sends), takes...), drain)
		}
		for _, cloneFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("sends-first=%v/clone-first=%v", sendFirst, cloneFirst), func(t *testing.T) {
				sym := swapSymmetry()
				parent := &ChoiceFabric{}
				parent.Connect(1, 2, network.CrossCluster())
				parent.Connect(2, 3, network.IntraCluster())
				perVNet := network.CrossCluster()
				perVNet.Unordered = false
				parent.Connect(2, 4, perVNet)
				for i, s := range []struct {
					src, dst msg.NodeID
					v        msg.VNet
				}{
					{1, 2, msg.VRsp}, {1, 2, msg.VRsp}, {1, 2, msg.VRsp}, {2, 3, msg.VReq},
					{1, 2, msg.VReq}, {1, 2, msg.VSnp}, {1, 2, msg.VReq},
				} {
					parent.Send(&msg.Msg{Src: s.src, Dst: s.dst, VNet: s.v, Val: uint64(i)})
				}
				// Fill the channel caches and the bag's kept hashes, so the
				// clone shares them too.
				for pi := range sym.perms {
					h := fp.New()
					parent.fingerprint(&h, sym, pi)
				}
				refs := [2]*ChoiceFabric{deepCopy(parent), deepCopy(parent)}
				clone := parent.Clone()
				sides := [2]*ChoiceFabric{parent, &clone}
				order := []int{0, 1}
				if cloneFirst {
					order = []int{1, 0}
				}
				for oi, o := range ops {
					for _, side := range order {
						if o.take != nil {
							sides[side].take(*o.take)
							refs[side].take(*o.take)
						} else {
							m := o.send
							m.Val = uint64(100*(side+1) + oi)
							sides[side].Send(&m)
							refs[side].Send(&m)
						}
						for s := range sides {
							where := fmt.Sprintf("after %s on side %d, side %d", o.name, side, s)
							compareFabrics(t, sym, sides[s], refs[s], where)
						}
					}
				}
			})
		}
	}
}

// swapSymmetry returns a renaming group of two: the identity, and a
// swap of nodes 3 and 4 (no line renames).
func swapSymmetry() *symmetry {
	s := &symmetry{l1Of: []msg.NodeID{3, 4}}
	s.perms = []symPerm{{sym: s, identity: true}, {sym: s, tperm: []int{1, 0}}}
	return s
}

// deepCopy copies f's in-flight messages onto fresh backings, with no
// cached or kept hashes.
func deepCopy(f *ChoiceFabric) *ChoiceFabric {
	d := &ChoiceFabric{links: f.links, bag: slices.Clone(f.bag)}
	for _, c := range f.chans {
		d.chans = append(d.chans, channel{key: c.key, q: slices.Clone(c.q)})
	}
	return d
}

// compareFabrics fails t unless got offers the actions want does, each
// peeking at the same message, and hashes from scratch and
// incrementally as want does from scratch under every renaming of sym.
func compareFabrics(t *testing.T, sym *symmetry, got, want *ChoiceFabric, where string) {
	t.Helper()
	ga, wa := got.Enabled(), want.Enabled()
	if !slices.Equal(ga, wa) {
		t.Fatalf("%s: enabled %+v, want %+v", where, ga, wa)
	}
	for _, a := range wa {
		if g, w := got.Peek(a), want.Peek(a); g != w {
			t.Fatalf("%s: %+v peeks at %v, want %v", where, a, g, w)
		}
	}
	for pi := range sym.perms {
		g, inc, w := fp.New(), fp.New(), fp.New()
		scratchFingerprint(got, &g, &sym.perms[pi])
		got.fingerprint(&inc, sym, pi)
		scratchFingerprint(want, &w, &sym.perms[pi])
		if g.Sum() != w.Sum() || inc.Sum() != w.Sum() {
			t.Fatalf("%s: hash under renaming %d is %#x from scratch and %#x incrementally, want %#x",
				where, pi, g.Sum(), inc.Sum(), w.Sum())
		}
	}
}
