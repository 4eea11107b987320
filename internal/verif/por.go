package verif

import (
	"c3/internal/mem"
	"c3/internal/msg"
)

// Partial-order reduction: when delivering one message provably commutes
// with every other enabled delivery, exploring just that delivery first
// (a singleton ample set) reaches the same states, terminals, and
// violations as the full expansion — the skipped interleavings are
// permutations of independent steps.
//
// Independence rests on the system being per-line outside the cores:
// every controller (L1 request/evict TBEs, C3 local directories and
// TBEs, DCOH/hmesi directory lines) keys its state and queues by line
// address, and cache-set conflicts — the one cross-line coupling inside
// a cache — are excluded by the same gate as the symmetry reduction
// (≤16 variables, no TinyLLC). The cores are the remaining coupling:
// delivering on line L can complete an access and let a core issue its
// next (possibly other-line) operation. A delivery on L is therefore
// ample only if every core that will ever touch L again touches nothing
// but L (see ampleAction). Crash/fault artifacts (poisoned deliveries)
// disable the reduction conservatively, preserving fault coverage.
//
// The checker guards the cycle proviso separately: an ample successor
// that hashes to an already-visited state forces full expansion, so no
// enabled delivery can be ignored forever around a cycle.

// porScratch holds ampleAction's per-line counts and per-core masks,
// reused across the frontier pops of one exploration.
type porScratch struct {
	counts []int
	masks  []uint32
}

// ampleAction returns the index into acts of a delivery valid as a
// singleton ample set, or -1 to require full expansion. Deterministic:
// it scans acts in canonical order and depends only on model state.
func (m *Model) ampleAction(sym *symmetry, acts []Action, buf *porScratch) int {
	if !sym.porOK {
		return -1
	}
	// Per-line in-flight message counts. A message on an unknown line or
	// carrying poison makes every delivery non-ample.
	nv := len(sym.varLines)
	if cap(buf.counts) < nv {
		buf.counts = make([]int, nv)
	}
	counts := buf.counts[:nv]
	clear(counts)
	ok := true
	m.Fabric.ForEachInFlight(func(mm *msg.Msg) {
		if !ok {
			return
		}
		if mm.Poisoned {
			ok = false
			return
		}
		i, found := sym.lineIdx[mm.Addr]
		if !found {
			ok = false
			return
		}
		counts[i]++
	})
	if !ok {
		return -1
	}
	// Per-core future-line masks: window and store-buffer entries plus
	// unfetched program (nv ≤ 16, so a word of bits suffices).
	threads := m.threads()
	if cap(buf.masks) < len(threads) {
		buf.masks = make([]uint32, len(threads))
	}
	masks := buf.masks[:len(threads)]
	bad := false
	for ci, t := range threads {
		var mask uint32
		add := func(a mem.LineAddr) {
			if i, found := sym.lineIdx[a]; found {
				mask |= 1 << uint(i)
			} else {
				bad = true
			}
		}
		t.core.FutureLines(add)
		t.src.FutureLines(add)
		if bad {
			return -1
		}
		masks[ci] = mask
	}
	for ai := range acts {
		li, found := sym.lineIdx[m.Fabric.Peek(acts[ai]).Addr]
		if !found {
			continue
		}
		// The delivery must be the only traffic on its line (FIFO order
		// behind it, or a racing same-line delivery, is a dependence)...
		if counts[li] != 1 {
			continue
		}
		// ...and no core may couple the line to another: any core whose
		// future touches li must touch only li.
		bit := uint32(1) << uint(li)
		good := true
		for _, mask := range masks {
			if mask&bit != 0 && mask != bit {
				good = false
				break
			}
		}
		if good {
			return ai
		}
	}
	return -1
}
