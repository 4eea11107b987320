package verif

import (
	"testing"

	"c3/internal/msg"
	"c3/internal/network"
)

type sinkPort struct{ got []*msg.Msg }

func (p *sinkPort) Recv(m *msg.Msg) { p.got = append(p.got, m) }

// TestChoiceFabricLinkOrdering: Send orders each message by its link's
// LinkConfig the way the timed network does. A CrossVNetOrder link is
// one FIFO across vnets; an Unordered link puts requests and snoops in
// the bag and keeps a FIFO per vnet for responses; any other link is a
// FIFO per vnet; a pair no Connect linked panics.
func TestChoiceFabricLinkOrdering(t *testing.T) {
	f := &ChoiceFabric{}
	ports := map[msg.NodeID]*sinkPort{}
	for id := msg.NodeID(1); id <= 5; id++ {
		ports[id] = &sinkPort{}
		f.Register(id, ports[id])
	}
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
	f.Deliver(acts[5])
	if got := ports[2].got; len(got) != 1 || got[0] != snp12 {
		t.Fatalf("delivering the bagged snoop reached port 2 as %v", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a send between unlinked nodes did not panic")
		}
	}()
	send(3, 5, msg.VReq)
}
