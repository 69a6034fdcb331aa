// Package desim provides a deterministic discrete-event simulation engine.
//
// It replaces Parsec, the C-based simulation language the original ChicSim
// was built on, and provides the virtual clock on which every other
// simulator component runs. Events are callbacks scheduled at a virtual
// time; ties are broken by scheduling order, so a simulation driven by a
// seeded random source is exactly reproducible.
//
// # Kernel internals
//
// The queue is an inlined 4-ary heap of pooled event nodes ordered by
// (time, sequence) — a strict deterministic total order. Cancellation is
// lazy: Cancel marks the node and the queue drains it on pop (or in a
// batched compaction once dead nodes dominate), so the cancel-heavy flow
// matrix costs O(1) per cancel instead of an O(log n) removal. Nodes are
// recycled through a free list, making steady-state scheduling and
// stepping allocation-free. See DESIGN.md §13 for the invariants.
package desim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time = float64

// node is the pooled internal representation of one scheduled callback.
// Nodes are recycled through the engine's free list; gen counts reuses so
// stale Event handles can be detected.
type node struct {
	at       Time
	seq      uint64
	gen      uint64
	index    int32 // position in the heap; -1 once popped or pooled
	canceled bool
	fired    bool
	fn       func()
}

// Event is a handle to a scheduled callback. It can be cancelled before it
// fires via Engine.Cancel, or moved via Engine.Reschedule. The zero Event
// means "no event" and is safe to Cancel (a no-op).
//
// Handles stay valid after the event fires or is cancelled: Cancel remains
// a guaranteed no-op and Fired/Canceled keep reporting the outcome — until
// the engine recycles the underlying node for a later Schedule, after
// which the stale handle still cancels nothing (a generation check makes
// that unconditional) but Fired/Canceled report the generic
// lifecycle-over outcome (true, false) rather than the recorded one.
type Event struct {
	n   *node
	gen uint64
}

// IsZero reports whether the handle is the zero "no event" value.
func (ev Event) IsZero() bool { return ev.n == nil }

// live reports whether the handle still refers to the node's current
// occupant (scheduled, fired, or cancelled — but not yet recycled).
func (ev Event) live() bool { return ev.n != nil && ev.n.gen == ev.gen }

// At returns the virtual time the event is scheduled (or last fired).
// Unspecified for zero or recycled handles.
func (ev Event) At() Time {
	if !ev.live() {
		return math.NaN()
	}
	return ev.n.at
}

// Canceled reports whether the event was cancelled before it fired. An
// event that already executed stays Canceled() == false even if Cancel is
// called on it afterwards.
func (ev Event) Canceled() bool { return ev.live() && ev.n.canceled }

// Fired reports whether the event's callback has executed.
func (ev Event) Fired() bool {
	if ev.n == nil {
		return false
	}
	if ev.n.gen != ev.gen {
		// Node recycled: this event's lifecycle is over. Cancelled events
		// are overwhelmingly drained long before reuse, so report the
		// common outcome.
		return true
	}
	return ev.n.fired
}

// Engine is a discrete-event simulation engine. The zero value is ready to
// use. Engine is not safe for concurrent use: a simulation is a single
// logical thread of control (parallelism in this codebase lives one level
// up, across independent simulations).
type Engine struct {
	now     Time
	queue   []*node // 4-ary min-heap on (at, seq)
	seq     uint64
	fired   uint64
	live    int     // scheduled, neither cancelled nor fired
	dead    int     // cancelled nodes still awaiting drain from the queue
	free    []*node // recycled nodes
	stopped bool
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful in tests and
// for progress accounting).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the exact number of live scheduled events. Cancelled
// events still awaiting their lazy drain from the queue are not counted.
func (e *Engine) Pending() int { return e.live }

// Schedule registers fn to run after delay seconds of virtual time.
// A negative or NaN delay is an error in the caller; Schedule panics to
// surface the bug instead of silently reordering time.
func (e *Engine) Schedule(delay Time, fn func()) Event {
	if math.IsNaN(delay) || delay < 0 {
		panic(fmt.Sprintf("desim: Schedule with invalid delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At registers fn to run at absolute virtual time t, which must not be in
// the past.
func (e *Engine) At(t Time, fn func()) Event {
	if math.IsNaN(t) || t < e.now {
		panic(fmt.Sprintf("desim: At with time %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("desim: At with nil callback")
	}
	n := e.alloc()
	n.at = t
	n.seq = e.seq
	n.fn = fn
	e.seq++
	e.push(n)
	e.live++
	return Event{n: n, gen: n.gen}
}

// Reschedule moves a pending event to fire after delay seconds of virtual
// time, assigning it a fresh sequence number — exactly as if it had been
// cancelled and scheduled anew, but without the queue churn. A moved event
// therefore ties with equal-time events the way a fresh Schedule would
// (it fires after every event already queued for that instant), and a
// caller may use either form without changing the event order.
// Rescheduling an event that fired, was cancelled, or whose node was
// recycled is a caller bug and panics.
func (e *Engine) Reschedule(ev Event, delay Time) {
	if math.IsNaN(delay) || delay < 0 {
		panic(fmt.Sprintf("desim: Reschedule with invalid delay %v", delay))
	}
	n := ev.n
	if n == nil || n.gen != ev.gen || n.canceled || n.fired || n.index < 0 {
		panic("desim: Reschedule of a dead or stale event")
	}
	n.at = e.now + delay
	n.seq = e.seq
	e.seq++
	// The new seq is the largest in the queue, so among equal times the
	// node sinks to the back — the same slot a fresh Schedule would take.
	if !e.siftDown(int(n.index)) {
		e.siftUp(int(n.index))
	}
}

// Cancel prevents a scheduled event from firing. Cancelling a zero handle,
// or an event that already fired or was already cancelled, is a harmless
// no-op; in particular, cancelling a fired event does not retroactively
// mark it Canceled. Because events at equal time execute in scheduling
// (seq) order, whether a cancel issued from event A reaches a
// same-timestamp event B before B fires is fully determined by their seq
// order — there is no race, and the outcome is identical on every run.
//
// Cancellation is lazy: the node stays queued, marked dead, and is
// dropped when it reaches the top (or in a batched compaction once dead
// nodes outnumber live ones), so Cancel itself is O(1).
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.canceled || n.fired {
		return
	}
	n.canceled = true
	e.live--
	if n.index < 0 {
		// A live event is always queued (At pushes, Step marks fired
		// before running the callback); release defensively rather than
		// leak if that invariant ever breaks.
		e.release(n)
		return
	}
	e.dead++
	if e.dead > 64 && e.dead*2 > len(e.queue) {
		e.compact()
	}
}

// Step executes the single next event, advancing the clock to its time.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		n := e.popTop()
		if n.canceled {
			e.dead--
			e.release(n)
			continue
		}
		e.now = n.at
		e.fired++
		e.live--
		n.fired = true
		fn := n.fn
		fn()
		e.release(n)
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time ≤ horizon, then advances the clock to
// horizon. Events scheduled beyond the horizon remain pending.
func (e *Engine) RunUntil(horizon Time) {
	e.stopped = false
	for !e.stopped {
		n := e.peek()
		if n == nil || n.at > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// Stop makes the current Run/RunUntil return after the in-flight event
// completes. Intended to be called from inside an event callback.
func (e *Engine) Stop() { e.stopped = true }

// peek returns the next live node without popping it, draining any dead
// nodes blocking the top.
func (e *Engine) peek() *node {
	for len(e.queue) > 0 {
		n := e.queue[0]
		if n.canceled {
			e.popTop()
			e.dead--
			e.release(n)
			continue
		}
		return n
	}
	return nil
}

// alloc takes a node from the free list (bumping its generation, which
// invalidates any handle to its previous occupant) or makes a fresh one.
func (e *Engine) alloc() *node {
	if k := len(e.free) - 1; k >= 0 {
		n := e.free[k]
		e.free[k] = nil
		e.free = e.free[:k]
		n.gen++
		n.canceled = false
		n.fired = false
		return n
	}
	return &node{index: -1}
}

// release returns a node whose lifecycle ended (fired, or cancelled and
// drained) to the free list. Its outcome flags stay readable through old
// handles until the node is reused.
func (e *Engine) release(n *node) {
	n.fn = nil
	n.index = -1
	e.free = append(e.free, n)
}

// compact drops every cancelled node from the queue in one pass and
// restores the heap property bottom-up. Only the internal layout changes:
// the (time, seq) pop order of live events — the determinism contract —
// is unaffected.
func (e *Engine) compact() {
	q := e.queue
	w := 0
	for _, n := range q {
		if n.canceled {
			e.release(n)
			continue
		}
		q[w] = n
		n.index = int32(w)
		w++
	}
	for i := w; i < len(q); i++ {
		q[i] = nil
	}
	e.queue = q[:w]
	e.dead = 0
	if w > 1 {
		for i := (w - 2) / 4; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// nodeLess orders nodes by (time, sequence), the deterministic total order.
func nodeLess(a, b *node) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (e *Engine) push(n *node) {
	n.index = int32(len(e.queue))
	e.queue = append(e.queue, n)
	e.siftUp(len(e.queue) - 1)
}

// popTop removes and returns the root node (not necessarily live).
func (e *Engine) popTop() *node {
	q := e.queue
	top := q[0]
	last := len(q) - 1
	if last > 0 {
		moved := q[last]
		q[0] = moved
		moved.index = 0
	}
	q[last] = nil
	e.queue = q[:last]
	if last > 1 {
		e.siftDown(0)
	}
	top.index = -1
	return top
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	n := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !nodeLess(n, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = n
	n.index = int32(i)
}

// siftDown restores the heap below i, reporting whether the node moved.
func (e *Engine) siftDown(i int) bool {
	q := e.queue
	n := q[i]
	start := i
	size := len(q)
	for {
		c := i*4 + 1
		if c >= size {
			break
		}
		best := c
		end := c + 4
		if end > size {
			end = size
		}
		for j := c + 1; j < end; j++ {
			if nodeLess(q[j], q[best]) {
				best = j
			}
		}
		if !nodeLess(q[best], n) {
			break
		}
		q[i] = q[best]
		q[i].index = int32(i)
		i = best
	}
	q[i] = n
	n.index = int32(i)
	return i != start
}
