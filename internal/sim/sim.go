// Package sim provides the discrete-event simulation kernel used by every
// timed component in the C3 simulator: a deterministic event queue ordered
// by (time, sequence) and a simulated clock measured in core cycles.
//
// The kernel is single-threaded by design. Determinism matters twice over
// here: performance runs must be reproducible for the benchmark harness,
// and the litmus runner perturbs timing only through explicit, seeded
// jitter injected at the network layer (never through map iteration or
// scheduling races). Run-level parallelism (internal/parallel) gives each
// concurrent run its own Kernel, so nothing here needs locks.
//
// The hot path is allocation-free in steady state: fired and cancelled
// events are recycled through a per-kernel freelist, and the binary heap
// is sifted directly on []*event (no container/heap interface boxing).
// Components that schedule at high rate can avoid the per-call closure
// too, via ScheduleArg (see internal/network's delivery path and the
// cores' pump and local-completion events).
//
// Nearly every event in a timed run is due within a few hundred cycles:
// core pumps, local completions and L1 hit replies one cycle ahead,
// controller, cache and DRAM latencies a few to a few dozen, and a
// cross-cluster link traversal about 140-170. Those bypass the heap: an
// event due fewer than wheelSlots cycles ahead joins the FIFO chain of a
// timing-wheel slot for its due time, and a bitmap of occupied slots
// finds the earliest. Every wheel event is due in [now, now+wheelSlots),
// so a slot holds one due time, and its chain is in seq order because
// seq only grows. The heap keeps only the events due wheelSlots or more
// cycles out, and Step pops the earlier of the wheel's first event and
// the heap top.
package sim

import (
	"math/bits"
	"sync"
)

// Time is a simulation timestamp in cycles of the global clock.
// With the paper's 2 GHz cores, 1 cycle = 0.5 ns.
type Time uint64

// CyclesPerNS converts between the paper's nanosecond figures and cycles.
const CyclesPerNS = 2

// NS returns the Time corresponding to n nanoseconds.
func NS(n uint64) Time { return Time(n * CyclesPerNS) }

// event is a scheduled callback. Exactly one of fn/afn is set; afn runs
// with arg (the closure-free variant used by hot senders). Events are
// owned by the kernel and recycled after they fire or are cancelled; the
// generation counter keeps stale Handles harmless.
type event struct {
	when Time
	fn   func()
	afn  func(any)
	arg  any

	seq   uint64 // tie-break so equal-time events run in schedule order
	gen   uint32 // bumped on recycle; Handles with an older gen are stale
	index int32  // heap position, inWheel, or -1 when not queued
	next  *event // the next event of its wheel slot's circular chain
}

// inWheel marks an event queued in the timing wheel. A wheel event that
// is cancelled drops to index -1 but stays in its slot's chain until
// Step reaches it, so Cancel never has to search a chain.
const inWheel = -2

// before reports whether a runs before b: the kernel's total order.
func before(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event for Cancel. The zero Handle is
// valid and cancels as a no-op, as does any Handle whose event already
// fired, was cancelled, or was recycled for a later schedule.
type Handle struct {
	e   *event
	gen uint32
}

// Valid reports whether the handle was obtained from Schedule/After (it
// does not imply the event is still pending).
func (h Handle) Valid() bool { return h.e != nil }

type eventHeap []*event

func (h eventHeap) less(i, j int) bool { return before(h[i], h[j]) }

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h.swap(i, m)
		i = m
	}
}

func (h *eventHeap) push(e *event) {
	e.index = int32(len(*h))
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *event {
	old := *h
	e := old[0]
	n := len(old) - 1
	old.swap(0, n)
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at heap position i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	e := old[i]
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		(*h).down(i)
		(*h).up(i)
	}
	e.index = -1
}

// FIFO is a first-in first-out queue on a power-of-two ring that doubles
// when full. A component whose events all fire at one fixed delay keeps
// their payloads in one, since those events fire in the order it
// scheduled them, so each event pops the head and needs no closure of
// its own.
type FIFO[T any] struct {
	buf     []T
	head, n int32
}

// Len reports how many values are queued.
func (q *FIFO[T]) Len() int { return int(q.n) }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if int(q.n) == len(q.buf) {
		nb := make([]T, max(2*len(q.buf), 2))
		for i := range q.n {
			nb[i] = q.buf[(q.head+i)&int32(len(q.buf)-1)]
		}
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)&int32(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest value; the queue must not be empty.
func (q *FIFO[T]) Front() T { return q.buf[q.head] }

// Pop removes and returns the oldest value; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & int32(len(q.buf)-1)
	q.n--
	return v
}

// wheelSlots is the timing wheel's span W: an event due fewer than W
// cycles ahead queues in the wheel, a later one in the heap. It is a
// power of two, and covers all of the delays histogram schedules and
// all but about one in 7,000 of vips' (those are due within 512).
const (
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
)

// wheel is the kernel's near-event queue. Slot t&wheelMask chains the
// events due at t in schedule order, circularly through event.next:
// tails[slot] is the last event and its next the first, so appending and
// popping each touch one pointer of the slot. occ has one bit per
// non-empty slot. A wheel is 2 KB, so the kernel holds it by pointer and
// a kernel value (a checker snapshot embeds one) stays small.
type wheel struct {
	tails [wheelSlots]*event
	occ   [wheelSlots / 64]uint64
}

// push appends e to the chain of its due time's slot.
func (w *wheel) push(e *event) {
	s := e.when & wheelMask
	if t := w.tails[s]; t != nil {
		e.next = t.next
		t.next = e
	} else {
		e.next = e
		w.occ[s>>6] |= 1 << (s & 63)
	}
	w.tails[s] = e
}

// pop unlinks and returns the first event of slot s's chain.
func (w *wheel) pop(s Time) *event {
	s &= wheelMask
	t := w.tails[s]
	h := t.next
	if h == t {
		w.tails[s] = nil
		w.occ[s>>6] &^= 1 << (s & 63)
	} else {
		t.next = h.next
	}
	return h
}

// first returns the earliest non-empty slot at or after slot from,
// wrapping once around the wheel, or false when every slot is empty.
func (w *wheel) first(from Time) (Time, bool) {
	from &= wheelMask
	i := from >> 6
	if b := w.occ[i] >> (from & 63); b != 0 {
		return from + Time(bits.TrailingZeros64(b)), true
	}
	for j := Time(1); j <= Time(len(w.occ)); j++ {
		wi := (i + j) % Time(len(w.occ))
		if b := w.occ[wi]; b != 0 {
			return wi<<6 + Time(bits.TrailingZeros64(b)), true
		}
	}
	return 0, false
}

// wheels hands the wheel of a released kernel to the next kernel that
// queues a near event (Kernel.Release). Pooled wheels are empty.
var wheels = sync.Pool{New: func() any { return new(wheel) }}

// Kernel is the event loop. The zero value is ready to use.
type Kernel struct {
	now    Time
	nextSq uint64
	events eventHeap
	// w holds the events due fewer than wheelSlots cycles ahead of the
	// time they were scheduled; near counts those not cancelled. A kernel
	// takes its wheel on its first near event.
	w    *wheel
	near int32
	free []*event
	// Stepped counts processed events; useful as a progress/limit guard.
	Stepped uint64
}

// Now reports the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// AdvanceTo moves the clock of a drained kernel forward to t; it does
// nothing when t is not later than now. The model checker uses it when
// a state takes over a component stepped on another kernel, whose
// timestamps (a DRAM channel's busy-until) may be that kernel's.
func (k *Kernel) AdvanceTo(t Time) {
	if k.Pending() != 0 {
		panic("sim: AdvanceTo on a kernel with pending events")
	}
	k.now = max(k.now, t)
}

// Clone returns a new kernel at the same simulated time and schedule
// sequence, by value so that the caller can embed it. Only a quiescent
// kernel (no pending events) can be cloned: queued events hold closures
// over the original component graph and cannot be rebound, so the model
// checker snapshots states only at quiescent points where the queue has
// drained. The clone has no spare storage of its own, wheel included
// (see Spares).
func (k *Kernel) Clone() Kernel {
	if k.Pending() != 0 {
		panic("sim: Clone of kernel with pending events")
	}
	return Kernel{now: k.now, nextSq: k.nextSq, Stepped: k.Stepped}
}

// Spares is the storage a drained kernel keeps for reuse: its event
// free list, the emptied backing of its heap and its emptied wheel.
// Kernels cloned from one another can pass one Spares around, each
// holding it only while it runs (SwapSpares), so that they schedule
// from one free list instead of growing their own. The kernels sharing
// one Spares must run on one goroutine.
type Spares struct {
	free   []*event
	events eventHeap
	w      *wheel
}

// SwapSpares exchanges k's spare storage with s. A kernel that runs on
// borrowed storage swaps before it runs and again once it drains, which
// hands the storage, and every event recycled into it, back to s. k
// must be drained; a cancelled event still chained in its wheel is
// recycled first, so the storage handed over holds no queued event.
func (k *Kernel) SwapSpares(s *Spares) {
	if k.Pending() != 0 {
		panic("sim: SwapSpares on a kernel with pending events")
	}
	k.dropWheel()
	k.free, s.free = s.free, k.free
	k.events, s.events = s.events, k.events
	k.w, s.w = s.w, k.w
}

// Release retires the kernel: every queued event is dropped, so its
// Handle cancels as a no-op and nothing of the run stays reachable from
// the kernel's wheel, which is emptied and handed to the next kernel
// that queues a near event. The kernel is left empty at its current
// time. Releasing is optional (an unreleased wheel is simply garbage
// collected); system.Release calls it so that a machine built per
// iteration reuses the previous machine's wheel.
func (k *Kernel) Release() {
	for _, e := range k.events {
		e.index = -1
		k.recycle(e)
	}
	clear(k.events)
	k.events = k.events[:0]
	if k.w != nil {
		k.dropWheel()
		wheels.Put(k.w)
		k.w = nil
	}
}

// dropWheel unlinks and recycles every event chained in the wheel,
// cancelled or not.
func (k *Kernel) dropWheel() {
	w := k.w
	if w == nil {
		return
	}
	for i, word := range w.occ {
		for word != 0 {
			s := Time(i<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			for w.tails[s] != nil {
				e := w.pop(s)
				if e.index == inWheel {
					e.index = -1
					k.near--
				}
				k.recycle(e)
			}
		}
	}
}

// Pending reports how many events are queued (cancelled ones excluded).
func (k *Kernel) Pending() int { return len(k.events) + int(k.near) }

// alloc takes an event from the freelist, or makes one.
func (k *Kernel) alloc(t Time) *event {
	if t < k.now {
		panic("sim: scheduling event in the past")
	}
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{}
	}
	e.when = t
	e.seq = k.nextSq
	k.nextSq++
	return e
}

// recycle returns a fired or cancelled event to the freelist. The
// generation bump invalidates every outstanding Handle to it.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn, e.afn, e.arg = nil, nil, nil
	k.free = append(k.free, e)
}

// queue files e in the wheel or the heap. A wheel event is due in
// [now, now+wheelSlots) with now never decreasing, so its slot holds no
// other due time, and seq always increases, so appending keeps the
// slot's chain sorted by seq.
func (k *Kernel) queue(e *event) {
	if e.when-k.now >= wheelSlots {
		k.events.push(e)
		return
	}
	if k.w == nil {
		k.w = wheels.Get().(*wheel)
	}
	e.index = inWheel
	k.w.push(e)
	k.near++
}

// Schedule queues fn to run at absolute time t. Scheduling in the past is
// a programming error and panics (it would silently reorder causality).
func (k *Kernel) Schedule(t Time, fn func()) Handle {
	e := k.alloc(t)
	e.fn = fn
	k.queue(e)
	return Handle{e: e, gen: e.gen}
}

// ScheduleArg is Schedule without the per-call closure: fn is typically a
// long-lived method value shared across many events, and arg carries the
// per-event state (a pointer, so boxing it into any does not allocate).
// The network delivery path, the cores and the L1 reply queues use it
// to stay allocation-free in steady state.
func (k *Kernel) ScheduleArg(t Time, fn func(any), arg any) Handle {
	e := k.alloc(t)
	e.afn = fn
	e.arg = arg
	k.queue(e)
	return Handle{e: e, gen: e.gen}
}

// After queues fn to run d cycles from now.
func (k *Kernel) After(d Time, fn func()) Handle {
	return k.Schedule(k.now+d, fn)
}

// Cancel removes a queued event. Cancelling an already-fired, cancelled,
// or zero handle is a no-op — the generation counter makes stale handles
// safe even though the underlying event may have been recycled for an
// unrelated schedule. A cancelled wheel event is marked dead in place and
// recycled when Step reaches it.
func (k *Kernel) Cancel(h Handle) {
	e := h.e
	if e == nil || e.gen != h.gen || e.index == -1 {
		return
	}
	if e.index == inWheel {
		e.index = -1
		e.gen++
		e.fn, e.afn, e.arg = nil, nil, nil
		k.near--
		return
	}
	k.events.remove(int(e.index))
	k.recycle(e)
}

// next dequeues the earliest live event, or returns nil. Its fast path
// takes a live event from the first occupied slot of the bitmap word
// holding now's slot; the rest is nextSlow.
func (k *Kernel) next() *event {
	if w := k.w; w != nil {
		from := k.now & wheelMask
		if b := w.occ[from>>6] >> (from & 63); b != 0 {
			s := from + Time(bits.TrailingZeros64(b))
			h := w.tails[s&wheelMask].next
			if h.index == inWheel && (len(k.events) == 0 || !before(k.events[0], h)) {
				w.pop(s)
				k.near--
				h.index = -1
				return h
			}
		}
	}
	return k.nextSlow()
}

// nextSlow is next for every other case: the wheel's earliest event is
// dead, lies in a later word of the bitmap, or comes after the heap
// top. The wheel's first event and the heap top compare by (when, seq):
// an event due at t sits in the heap only if it was scheduled by
// t-wheelSlots, so before every wheel event due at t, and the heap top
// wins such a tie.
func (k *Kernel) nextSlow() *event {
	if w := k.w; w != nil {
		for {
			s, ok := w.first(k.now)
			if !ok {
				break
			}
			h := w.tails[s].next
			if h.index != inWheel { // cancelled
				k.recycle(w.pop(s))
				continue
			}
			if len(k.events) > 0 && before(k.events[0], h) {
				break
			}
			w.pop(s)
			k.near--
			h.index = -1
			return h
		}
	}
	if len(k.events) == 0 {
		return nil
	}
	return k.events.popMin()
}

// Step runs the next event. It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	e := k.next()
	if e == nil {
		return false
	}
	k.now = e.when
	k.Stepped++
	fn, afn, arg := e.fn, e.afn, e.arg
	// Recycle before running the callback so that events it schedules
	// reuse this slot immediately (and its own Handle goes stale first).
	k.recycle(e)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	return true
}

// Run processes events until the queue drains or until(), when non-nil,
// returns true. It returns the number of events processed.
func (k *Kernel) Run(until func() bool) uint64 {
	start := k.Stepped
	for k.Pending() > 0 {
		if until != nil && until() {
			break
		}
		k.Step()
	}
	return k.Stepped - start
}

// RunLimit processes at most limit events; it reports whether the queue
// drained. A zero limit means no limit.
func (k *Kernel) RunLimit(limit uint64) bool {
	for n := uint64(0); k.Pending() > 0; n++ {
		if limit != 0 && n >= limit {
			return false
		}
		k.Step()
	}
	return true
}
