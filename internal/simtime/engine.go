// Package simtime implements the discrete-event core of the simulator: a
// virtual clock and an event queue ordered by timestamp with deterministic
// FIFO tie-breaking. All simulator components share one Engine; wall-clock
// time never appears anywhere in the simulation.
//
// The queue is built for throughput: a 4-ary array heap (shallower than a
// binary heap, so fewer cache lines per sift) whose events record their own
// heap position, so Cancel removes and Reschedule re-keys an event in place
// in O(log n), and a free-list event pool so steady-state schedule/fire
// cycles allocate nothing. The heap holds exactly the pending events. See
// DESIGN.md "Performance model".
package simtime

import (
	"fmt"
	"math"
)

// Seconds is the unit of simulated time throughout the repository.
type Seconds = float64

// event is the pooled storage behind an Event handle. Events fire in
// timestamp order; events with equal timestamps fire in scheduling order
// (seq), which keeps runs reproducible. idx is the event's slot in the
// heap while it is queued. gen increments every time the struct is
// recycled (on fire or cancel), so a handle is pending exactly while its
// gen matches, and stale handles from a previous tenancy are inert.
type event struct {
	at  Seconds
	seq uint64
	gen uint64
	idx int
	fn  func(now Seconds)
	eng *Engine
}

// Event is a cancellation handle for one scheduled callback. Handles are
// small values; the zero Event is valid and refers to nothing. A handle
// outlives its event safely: once the event fires or is cancelled, Cancel,
// Pending and Reschedule treat it as referring to nothing.
type Event struct {
	ev  *event
	gen uint64
}

// Cancel removes the event from the queue so it will not fire. Cancelling
// an already-fired, already-cancelled, or zero event is a no-op.
//
//hot:allocfree
func (e Event) Cancel() {
	if !e.Pending() {
		return
	}
	eng := e.ev.eng
	eng.remove(e.ev.idx)
	eng.recycle(e.ev)
}

// Pending reports whether the event is still queued to fire: scheduled,
// not cancelled, not yet fired.
func (e Event) Pending() bool {
	return e.ev != nil && e.ev.gen == e.gen
}

// At returns the timestamp the event is scheduled for, or 0 once it has
// fired or been cancelled, or for the zero handle.
func (e Event) At() Seconds {
	if !e.Pending() {
		return 0
	}
	return e.ev.at
}

// Engine owns the virtual clock and the pending event set.
type Engine struct {
	now   Seconds
	seq   uint64
	fired uint64

	// events is a 4-ary min-heap ordered by (at, seq) holding exactly the
	// pending events; events[i].idx == i.
	events []*event
	// free is the event pool: structs recycled on fire and cancel, reused
	// by the next Schedule.
	free []*event
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Seconds { return e.now }

// Fired returns the number of events executed so far, a cheap progress and
// determinism probe for tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.events) }

// badAt panics on a timestamp no event may carry. Scheduling in the past
// (before Now) is always a simulator bug, and silently clamping it would
// hide causality violations. Kept out of line so the hot callers stay
// small and its message formatting is not charged to them.
//
//go:noinline
func (e *Engine) badAt(at Seconds) {
	if math.IsNaN(at) {
		panic("simtime: schedule at NaN")
	}
	panic(fmt.Sprintf("simtime: schedule at %.9f before now %.9f", at, e.now))
}

// Schedule queues fn to run at the given absolute time. A NaN time, or one
// before Now, panics.
//
//hot:allocfree
func (e *Engine) Schedule(at Seconds, fn func(now Seconds)) Event {
	if !(at >= e.now) { // also catches NaN
		e.badAt(at)
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e} //lint:allow hotalloc -- pool miss: warms the event pool once, steady state recycles
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
	return Event{ev: ev, gen: ev.gen}
}

// Reschedule moves the pending event h to fire fn at the given time,
// re-keying it in place, and returns h. If h is not pending (fired,
// cancelled, zero, or from another engine) it schedules a new event
// instead. Either way the event takes the next scheduling sequence number,
// exactly as Cancel followed by Schedule would, so firing order is the
// same as that pair's.
//
//hot:allocfree
func (e *Engine) Reschedule(h Event, at Seconds, fn func(now Seconds)) Event {
	ev := h.ev
	if !h.Pending() || ev.eng != e {
		return e.Schedule(at, fn)
	}
	if !(at >= e.now) {
		e.badAt(at)
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.fix(ev.idx)
	return h
}

// After queues fn to run delay seconds from now.
func (e *Engine) After(delay Seconds, fn func(now Seconds)) Event {
	return e.Schedule(e.now+delay, fn)
}

// recycle returns an event struct that has left the heap to the pool.
// Bumping gen first makes every outstanding handle to it inert.
//
//hot:allocfree
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil // release the closure; pooled structs must not pin memory
	e.free = append(e.free, ev)
}

// Step fires the single earliest pending event. It returns false when the
// queue is empty.
//
//hot:allocfree
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.popMin()
	at, fn := ev.at, ev.fn
	e.recycle(ev)
	e.now = at
	e.fired++
	fn(at)
	return true
}

// RunUntil fires events in order until the clock would pass horizon or the
// queue drains. The clock is left at exactly horizon when the horizon is hit
// so that periodic processes can resume cleanly.
//
//hot:allocfree
func (e *Engine) RunUntil(horizon Seconds) {
	for len(e.events) > 0 && e.events[0].at <= horizon {
		ev := e.popMin()
		at, fn := ev.at, ev.fn
		e.recycle(ev)
		e.now = at
		e.fired++
		fn(at)
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// DrainAt fires, in scheduling order, every pending event stamped with the
// earliest pending timestamp, provided that timestamp does not exceed
// horizon — one batch pop instead of one Step call per event. Events a
// callback schedules at the batch instant join the same batch (exactly the
// order a Step loop would produce, so DrainAt is result-identical to
// stepping). It returns how many events fired and the batch timestamp;
// n == 0 means no event at or before horizon remained, and the clock has
// been left at horizon so periodic processes can resume cleanly.
//
// Only bit-identical timestamps share a batch: continuous-time events
// (completions, arrivals) essentially never coalesce, while grid-aligned
// events (control ticks, fault windows, same-instant cascades) do.
//
//hot:allocfree
func (e *Engine) DrainAt(horizon Seconds) (n int, at Seconds) {
	if len(e.events) == 0 || e.events[0].at > horizon {
		if e.now < horizon {
			e.now = horizon
		}
		return 0, 0
	}
	at = e.events[0].at
	//lint:allow floateq -- deliberate: only bit-identical timestamps batch together
	for len(e.events) > 0 && e.events[0].at == at {
		ev := e.popMin()
		fn := ev.fn
		e.recycle(ev)
		e.now = at
		e.fired++
		n++
		fn(at)
	}
	return n, at
}

// Reset returns the engine to its initial state — clock at zero, no pending
// events, counters cleared — while keeping the event pool, so the next
// tenancy schedules into warm storage. Every queued event is recycled;
// outstanding handles become inert.
func (e *Engine) Reset() {
	for i, ev := range e.events {
		e.recycle(ev)
		e.events[i] = nil
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
}

// The event heap is 4-ary: children of i are arity*i+1 .. arity*i+arity,
// parent of i is (i-1)/arity. Shallower than binary, so a sift touches
// ~half the levels; the extra child comparisons are cheap and local.
const arity = 4

// less orders the heap by timestamp, then by scheduling order.
func less(a, b *event) bool {
	//lint:allow floateq -- deliberate: only bit-identical timestamps tie-break by seq
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// popMin removes and returns the heap root.
//
//hot:allocfree
func (e *Engine) popMin() *event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return root
}

// remove takes the event at heap slot i out of the heap, moving the last
// event into the hole and restoring the heap property around it.
//
//hot:allocfree
func (e *Engine) remove(i int) {
	h := e.events
	n := len(h) - 1
	h[i] = h[n]
	h[n] = nil
	e.events = h[:n]
	if i < n {
		e.fix(i)
	}
}

// fix restores the heap property after the key of the event at slot i
// changed in either direction.
//
//hot:allocfree
func (e *Engine) fix(i int) {
	if i > 0 && less(e.events[i], e.events[(i-1)/arity]) {
		e.siftUp(i)
	} else {
		e.siftDown(i)
	}
}

// siftUp moves the event at slot i toward the root until its parent is
// not greater.
//
//hot:allocfree
func (e *Engine) siftUp(i int) {
	h := e.events
	node := h[i]
	for i > 0 {
		parent := (i - 1) / arity
		p := h[parent]
		if !less(node, p) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = node
	node.idx = i
}

// siftDown moves the event at slot i toward the leaves until no child is
// smaller.
//
//hot:allocfree
func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	node := h[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		// Find the smallest child.
		best, child := first, h[first]
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if ev := h[c]; less(ev, child) {
				best, child = c, ev
			}
		}
		if !less(child, node) {
			break
		}
		h[i] = child
		child.idx = i
		i = best
	}
	h[i] = node
	node.idx = i
}

// Ticker repeatedly schedules fn every period, starting at start, until the
// engine stops being run. Stop the returned ticker to cancel future ticks.
type Ticker struct {
	engine *Engine
	period Seconds
	fn     func(now Seconds)
	// fireFn is the bound method value, created once so re-arming each
	// period does not allocate a fresh closure.
	fireFn func(now Seconds)
	ev     Event
	done   bool
}

// Tick registers a periodic callback. Period must be positive.
func (e *Engine) Tick(start, period Seconds, fn func(now Seconds)) *Ticker {
	if period <= 0 {
		panic("simtime: non-positive tick period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.fireFn = t.fire
	t.ev = e.Schedule(start, t.fireFn)
	return t
}

// fire runs one tick and re-arms via the pre-bound method value, so the
// periodic path schedules without creating a closure.
//
//hot:allocfree
func (t *Ticker) fire(now Seconds) {
	if t.done {
		return
	}
	t.fn(now)
	if !t.done {
		t.ev = t.engine.Schedule(now+t.period, t.fireFn)
	}
}

// Stop cancels all future ticks. Stopping twice is a no-op.
func (t *Ticker) Stop() {
	t.done = true
	t.ev.Cancel()
}

// Restart re-arms a stopped ticker to resume at the given absolute time
// with its original period and callback. Restarting a running ticker
// panics: two live arming chains would double-fire every period.
func (t *Ticker) Restart(start Seconds) {
	if !t.done {
		panic("simtime: restart of a running ticker")
	}
	t.done = false
	t.ev = t.engine.Schedule(start, t.fireFn)
}
