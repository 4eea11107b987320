package fp

import (
	"testing"

	"c3/internal/mem"
	"c3/internal/msg"
)

func entry(v uint64) Hasher {
	h := New()
	h.Word(v)
	return h
}

func bagOf(vs ...uint64) uint64 {
	var b Bag
	for _, v := range vs {
		b.Add(entry(v))
	}
	h := New()
	h.Bag(b)
	return h.Sum()
}

// TestBagIsAMultiset: a bag hashes the same in any insertion order, and
// counts repeated entries, as the fabric's reorderable bag needs.
func TestBagIsAMultiset(t *testing.T) {
	if bagOf(1, 2, 3) != bagOf(3, 1, 2) {
		t.Fatal("bag hash depends on insertion order")
	}
	if bagOf(1, 2) == bagOf(1, 2, 2) {
		t.Fatal("bag hash ignores a repeated entry")
	}
	if bagOf(1, 2) == bagOf(1, 3) {
		t.Fatal("bag hash ignores an entry's value")
	}
}

// swap exchanges nodes 4 and 5 and lines 0x40 and 0x80.
type swap struct{}

func (swap) Node(id msg.NodeID) msg.NodeID {
	switch id {
	case 4:
		return 5
	case 5:
		return 4
	}
	return id
}

func (swap) Line(a mem.LineAddr) mem.LineAddr {
	switch a {
	case 0x40:
		return 0x80
	case 0x80:
		return 0x40
	}
	return a
}

// TestRenamedWrites: node sets, nodes, lines and byte addresses hash as
// their images under the renamer, keeping an address's offset in its
// line.
func TestRenamedWrites(t *testing.T) {
	var s, img msg.NodeSet
	s.Add(1)
	s.Add(4)
	img.Add(1)
	img.Add(5)
	a, b := New(), New()
	a.Nodes(s, swap{})
	a.Node(5, swap{})
	a.Line(0x40, swap{})
	a.Addr(0x48, swap{})
	b.Word(uint64(img))
	b.Int(4)
	b.Word(0x80)
	b.Word(0x88)
	if a.Sum() != b.Sum() {
		t.Fatal("renamed writes differ from writing the images")
	}
}

func msgSum(m *msg.Msg) uint64 {
	h := New()
	h.Msg(m, Identity{})
	return h.Sum()
}

// TestMsgCoversEveryField: two messages that differ in any
// protocol-visible field hash differently, packed or not (an ack count
// too wide for its slot goes out in full), while the transport's Serial
// and Seq, and Dirty without a payload, leave the hash alone.
func TestMsgCoversEveryField(t *testing.T) {
	base := func() *msg.Msg {
		return &msg.Msg{Type: msg.GetS, Addr: 0x40, Src: 4, Dst: 1, VNet: msg.VReq, Req: msg.None}
	}
	edits := map[string]func(*msg.Msg){
		"type":     func(m *msg.Msg) { m.Type = msg.GetM },
		"line":     func(m *msg.Msg) { m.Addr = 0x80 },
		"src":      func(m *msg.Msg) { m.Src = 5 },
		"dst":      func(m *msg.Msg) { m.Dst = 2 },
		"vnet":     func(m *msg.Msg) { m.VNet = msg.VRsp },
		"req":      func(m *msg.Msg) { m.Req = 4 },
		"acks":     func(m *msg.Msg) { m.Acks = 1 },
		"wideAcks": func(m *msg.Msg) { m.Acks = 1 << 20 },
		"val":      func(m *msg.Msg) { m.Val = 1 },
		"word":     func(m *msg.Msg) { m.Word = 3 },
		"mask":     func(m *msg.Msg) { m.Mask = 1 },
		"acq":      func(m *msg.Msg) { m.Acq = true },
		"rel":      func(m *msg.Msg) { m.Rel = true },
		"poisoned": func(m *msg.Msg) { m.Poisoned = true },
		"data":     func(m *msg.Msg) { m.Data = &mem.Data{} },
		"payload":  func(m *msg.Msg) { m.Data = &mem.Data{1} },
		"dirty":    func(m *msg.Msg) { m.Data, m.Dirty = &mem.Data{}, true },
	}
	seen := map[uint64]string{msgSum(base()): "base"}
	for what, edit := range edits {
		m := base()
		edit(m)
		s := msgSum(m)
		if other, dup := seen[s]; dup {
			t.Errorf("messages edited in %s and in %s hash alike", what, other)
		}
		seen[s] = what
	}
	m := base()
	m.Serial, m.Seq, m.Dirty = 9, 9, true
	if msgSum(m) != msgSum(base()) {
		t.Error("Serial, Seq or a payload-less Dirty reached the hash")
	}
}
