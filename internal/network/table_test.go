package network

import (
	"fmt"
	"strings"
	"testing"

	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/sim"
)

// panicText runs f and returns what it panicked with, or "" if it did
// not. A runtime error (an index out of range) is rendered with its
// type, so a test can tell it from the network's own message.
func panicText(f func()) (text string) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case string:
			text = r
		default:
			text = fmt.Sprintf("%T: %v", r, r)
		}
	}()
	f()
	return ""
}

// TestTableMisusePanicsClearly: the node-indexed tables turn wiring
// mistakes into the network's own panics, never an index out of range.
func TestTableMisusePanicsClearly(t *testing.T) {
	k := &sim.Kernel{}
	n := New(k, 1)
	n.Register(1, &collector{k: k})
	n.Register(2, &collector{k: k})
	n.Connect(1, 2, CrossCluster())
	cases := []struct {
		name, want string
		f          func()
	}{
		{"send from beyond every row", "no route", func() {
			n.Send(&msg.Msg{Type: msg.GetS, Src: 40, Dst: 1, VNet: msg.VReq})
		}},
		{"send to beyond the row", "no route", func() {
			n.Send(&msg.Msg{Type: msg.GetS, Src: 1, Dst: 40, VNet: msg.VReq})
		}},
		{"send from a negative id", "no route", func() {
			n.Send(&msg.Msg{Type: msg.GetS, Src: msg.None, Dst: 1, VNet: msg.VReq})
		}},
		{"send on no vnet", "no route", func() {
			n.Send(&msg.Msg{Type: msg.GetS, Src: 1, Dst: 2, VNet: msg.NumVNets})
		}},
		{"register a negative id", "negative node id -1", func() { n.Register(-1, &collector{k: k}) }},
		{"connect from a negative id", "negative node id -3", func() { n.Connect(-3, 1, IntraCluster()) }},
		{"connect to a negative id", "negative node id -2", func() { n.Connect(1, -2, IntraCluster()) }},
		{"connect a node to itself", "duplicate link", func() { n.Connect(3, 3, IntraCluster()) }},
	}
	for _, c := range cases {
		got := panicText(c.f)
		if !strings.HasPrefix(got, "network: ") || !strings.Contains(got, c.want) {
			t.Errorf("%s: panicked with %q, want the network's %q panic", c.name, got, c.want)
		}
	}
}

// directed is one direction of a connected pair.
type directed struct {
	src, dst msg.NodeID
	cross    bool
}

// star wires the shape system.New builds, on the timed network with a
// crash-only fault plan: directory 1; "C3s" 2 and 3 on cross links to it
// and to each other; "L1s" 4 and 5 on intra links to 2 and 3. It
// returns both directions of every connected pair.
func star(t *testing.T) (*sim.Kernel, *Network, map[msg.NodeID]*collector, []directed) {
	t.Helper()
	k := &sim.Kernel{}
	n := New(k, 1)
	n.EnableFaults(crashOnlyPlan())
	ports := map[msg.NodeID]*collector{}
	for id := msg.NodeID(1); id <= 5; id++ {
		ports[id] = &collector{k: k}
		n.Register(id, ports[id])
	}
	var links []directed
	connect := func(a, b msg.NodeID, cfg LinkConfig) {
		n.Connect(a, b, cfg)
		links = append(links, directed{a, b, cfg.Cross}, directed{b, a, cfg.Cross})
	}
	connect(2, 1, CrossCluster())
	connect(4, 2, IntraCluster())
	connect(3, 1, CrossCluster())
	connect(3, 2, CrossCluster())
	connect(5, 3, IntraCluster())
	return k, n, ports, links
}

// vnetTypes is one message type per virtual network.
var vnetTypes = [msg.NumVNets]msg.Type{msg.VReq: msg.GetS, msg.VSnp: msg.SnpData, msg.VRsp: msg.CmpM}

// TestCrashWalksReachEveryLink: MarkNodeDown, MarkNodeUp and
// PendingRetries each walk the whole link table, so every link touching
// a crashed node, on every vnet and in both directions, goes down and
// comes back, and every shim-protected link's retransmission window is
// visible to PendingRetries and retired by the crash.
func TestCrashWalksReachEveryLink(t *testing.T) {
	k, n, ports, links := star(t)
	const dead = msg.NodeID(2)
	touches := func(src, dst msg.NodeID) bool { return src == dead || dst == dead }
	// sendAll puts one message on every directed link and vnet, each on
	// its own line, and returns the lines by link.
	round := 0
	sendAll := func() map[mem.LineAddr][2]msg.NodeID {
		round++
		lines := map[mem.LineAddr][2]msg.NodeID{}
		for i, l := range links {
			for v := msg.VNet(0); v < msg.NumVNets; v++ {
				a := mem.LineAddr(uint64(round*1000+i*int(msg.NumVNets)+int(v)) << mem.LineShift)
				lines[a] = [2]msg.NodeID{l.src, l.dst}
				n.Send(&msg.Msg{Type: vnetTypes[v], Addr: a, Src: l.src, Dst: l.dst, VNet: v})
			}
		}
		return lines
	}
	delivered := func() map[mem.LineAddr]bool {
		got := map[mem.LineAddr]bool{}
		for _, c := range ports {
			for _, m := range c.got {
				got[m.Addr] = true
			}
			c.got = nil
		}
		return got
	}
	cross := map[[2]msg.NodeID]bool{}
	for _, l := range links {
		cross[[2]msg.NodeID{l.src, l.dst}] = l.cross
	}

	lines := sendAll()
	for a, l := range lines {
		if got := n.PendingRetries(a); got != cross[l] {
			t.Errorf("link %d->%d: PendingRetries(%v) = %v before any ack, want %v", l[0], l[1], a, got, cross[l])
		}
	}
	n.MarkNodeDown(dead)
	for a, l := range lines {
		// The dead node's own windows are retired at once; windows
		// towards it wait for the peer-dead declaration.
		if want := cross[l] && l[0] != dead; n.PendingRetries(a) != want {
			t.Errorf("link %d->%d after the crash: PendingRetries = %v, want %v", l[0], l[1], !want, want)
		}
	}
	k.Run(nil)
	got := delivered()
	for a, l := range lines {
		if n.PendingRetries(a) {
			t.Errorf("link %d->%d: a retry is still pending after the declaration", l[0], l[1])
		}
		if want := !touches(l[0], l[1]); got[a] != want {
			t.Errorf("link %d->%d across the crash: delivered %v, want %v", l[0], l[1], got[a], want)
		}
	}
	if peers := n.DeadPeers(); len(peers) != 1 || peers[0] != dead {
		t.Fatalf("DeadPeers = %v, want [%d]", peers, dead)
	}

	n.MarkNodeUp(dead)
	lines = sendAll()
	k.Run(nil)
	got = delivered()
	for a, l := range lines {
		if !got[a] || n.PendingRetries(a) {
			t.Errorf("link %d->%d after the rejoin: delivered %v, pending %v", l[0], l[1], got[a], n.PendingRetries(a))
		}
	}
}
