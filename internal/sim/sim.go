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
// Most events in a timed run are scheduled exactly one cycle ahead (core
// pumps, local completions, L1 hit replies). Those bypass the heap: they
// queue in a FIFO next-cycle lane, which is already in (time, seq) order
// because the clock never runs backwards and seq only grows, and Step
// pops the earlier of the lane head and the heap top.
package sim

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
	index int32  // heap position, inLane, or -1 when not queued
}

// inLane marks an event queued in the next-cycle lane. A lane event that
// is cancelled drops to index -1 but stays in the ring until Step
// reaches it, so Cancel never has to search the ring.
const inLane = -2

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
// when full. The kernel's next-cycle lane is one; a component whose
// events all fire at one fixed delay keeps their payloads in another,
// since those events fire in the order it scheduled them, so each event
// pops the head and needs no closure of its own.
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

// Kernel is the event loop. The zero value is ready to use.
type Kernel struct {
	now    Time
	nextSq uint64
	events eventHeap
	// lane holds the events scheduled for now+1 at the time they were
	// scheduled, in schedule order; laneLive counts those not cancelled.
	lane     FIFO[*event]
	laneLive int32
	free     []*event
	// Stepped counts processed events; useful as a progress/limit guard.
	Stepped uint64
}

// Now reports the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Clone returns a new kernel at the same simulated time and schedule
// sequence. Only a quiescent kernel (no pending events) can be cloned:
// queued events hold closures over the original component graph and
// cannot be rebound, so the model checker snapshots states only at
// quiescent points where the queue has drained.
func (k *Kernel) Clone() *Kernel {
	if k.Pending() != 0 {
		panic("sim: Clone of kernel with pending events")
	}
	return &Kernel{now: k.now, nextSq: k.nextSq, Stepped: k.Stepped}
}

// Pending reports how many events are queued (cancelled ones excluded).
func (k *Kernel) Pending() int { return len(k.events) + int(k.laneLive) }

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

// queue files e in the next-cycle lane or the heap. Lane events carry
// when = now+1 with now never decreasing and seq always increasing, so
// appending keeps the lane sorted by (when, seq).
func (k *Kernel) queue(e *event) {
	if e.when == k.now+1 {
		e.index = inLane
		k.lane.Push(e)
		k.laneLive++
		return
	}
	k.events.push(e)
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
// unrelated schedule. A cancelled lane event is marked dead in place and
// recycled when Step reaches it.
func (k *Kernel) Cancel(h Handle) {
	e := h.e
	if e == nil || e.gen != h.gen || e.index == -1 {
		return
	}
	if e.index == inLane {
		e.index = -1
		e.gen++
		e.fn, e.afn, e.arg = nil, nil, nil
		k.laneLive--
		return
	}
	k.events.remove(int(e.index))
	k.recycle(e)
}

// next dequeues the earliest live event, or returns nil.
func (k *Kernel) next() *event {
	for k.lane.Len() > 0 {
		l := k.lane.Front()
		if l.index != inLane { // cancelled
			k.recycle(k.lane.Pop())
			continue
		}
		if len(k.events) > 0 && before(k.events[0], l) {
			break
		}
		k.lane.Pop()
		k.laneLive--
		l.index = -1
		return l
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
