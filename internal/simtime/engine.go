// Package simtime implements the discrete-event core of the simulator: a
// virtual clock and an event queue ordered by timestamp with deterministic
// FIFO tie-breaking. All simulator components share one Engine; wall-clock
// time never appears anywhere in the simulation.
//
// The queue is built for throughput: a 4-ary array heap (shallower than a
// binary heap, so fewer cache lines per sift), a free-list event pool so
// steady-state schedule/fire cycles allocate nothing, and lazy cancellation
// with compaction — cancelled events are skipped when popped, and the heap
// is rebuilt without them once they outnumber the live events. See
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
// (seq), which keeps runs reproducible. gen increments every time the
// struct is recycled, so stale handles from a previous tenancy are inert.
type event struct {
	at        Seconds
	seq       uint64
	gen       uint64
	fn        func(now Seconds)
	eng       *Engine
	cancelled bool
}

// Event is a cancellation handle for one scheduled callback. Handles are
// small values; the zero Event is valid and refers to nothing. A handle
// outlives its event safely: once the event fires or is recycled, Cancel
// and Pending become no-ops on it.
type Event struct {
	ev  *event
	gen uint64
}

// Cancel marks the event so it will not fire. Cancelling an already-fired,
// already-cancelled, or zero event is a no-op — in particular a double
// Cancel does not corrupt the engine's live-event accounting.
//
//hot:allocfree
func (e Event) Cancel() {
	ev := e.ev
	if ev == nil || ev.gen != e.gen || ev.cancelled {
		return
	}
	ev.cancelled = true
	eng := ev.eng
	eng.live--
	// Lazily-cancelled events rot in the heap; once they outnumber the
	// live ones, one O(n) rebuild reclaims them all.
	if len(eng.events) >= compactMin && len(eng.events)-eng.live > eng.live {
		eng.compact()
	}
}

// Pending reports whether the event is still queued to fire: scheduled,
// not cancelled, not yet fired.
func (e Event) Pending() bool {
	return e.ev != nil && e.ev.gen == e.gen && !e.ev.cancelled
}

// At returns the timestamp the event is scheduled for, or 0 once it has
// fired, been cancelled and reclaimed, or for the zero handle.
func (e Event) At() Seconds {
	if !e.Pending() {
		return 0
	}
	return e.ev.at
}

// compactMin is the queue size below which compaction is not worth the
// rebuild; tiny queues recycle cancelled events at pop time anyway.
const compactMin = 64

// Engine owns the virtual clock and the pending event set.
type Engine struct {
	now   Seconds
	seq   uint64
	fired uint64

	// events is a 4-ary min-heap ordered by (at, seq). Cancelled events
	// stay in place until popped or compacted away.
	events []*event
	// live counts non-cancelled queued events, making Pending() O(1).
	live int
	// free is the event pool: structs recycled on fire, cancelled-pop and
	// compaction, reused by the next Schedule.
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

// Pending returns the number of live (non-cancelled) events still queued.
func (e *Engine) Pending() int { return e.live }

// Schedule queues fn to run at the given absolute time. Scheduling in the
// past (before Now) panics: that is always a simulator bug, and silently
// clamping it would hide causality violations.
//
//hot:allocfree
func (e *Engine) Schedule(at Seconds, fn func(now Seconds)) Event {
	if math.IsNaN(at) {
		panic("simtime: schedule at NaN")
	}
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %.9f before now %.9f", at, e.now))
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
	ev.cancelled = false
	e.seq++
	e.live++
	e.push(ev)
	return Event{ev: ev, gen: ev.gen}
}

// After queues fn to run delay seconds from now.
func (e *Engine) After(delay Seconds, fn func(now Seconds)) Event {
	return e.Schedule(e.now+delay, fn)
}

// recycle returns a popped event struct to the pool. Bumping gen first
// makes every outstanding handle to it inert.
//
//hot:allocfree
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil // release the closure; pooled structs must not pin memory
	e.free = append(e.free, ev)
}

// pop removes and returns the earliest live event, recycling any cancelled
// events it uncovers. It returns nil when the queue has no live events.
//
//hot:allocfree
func (e *Engine) pop() *event {
	for len(e.events) > 0 {
		ev := e.popMin()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.live--
		return ev
	}
	return nil
}

// Step fires the single earliest pending event. It returns false when the
// queue is empty.
//
//hot:allocfree
func (e *Engine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	at, fn := ev.at, ev.fn
	e.recycle(ev)
	e.now = at
	e.fired++
	fn(e.now)
	return true
}

// RunUntil fires events in order until the clock would pass horizon or the
// queue drains. The clock is left at exactly horizon when the horizon is hit
// so that periodic processes can resume cleanly.
//
//hot:allocfree
func (e *Engine) RunUntil(horizon Seconds) {
	for len(e.events) > 0 {
		// Peek; recycle cancelled tops without firing.
		top := e.events[0]
		if top.cancelled {
			e.recycle(e.popMin())
			continue
		}
		if top.at > horizon {
			break
		}
		ev := e.popMin()
		e.live--
		at, fn := ev.at, ev.fn
		e.recycle(ev)
		e.now = at
		e.fired++
		fn(e.now)
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
	for len(e.events) > 0 {
		top := e.events[0]
		if top.cancelled {
			e.recycle(e.popMin())
			continue
		}
		if n == 0 {
			if top.at > horizon {
				break
			}
			at = top.at
		} else if top.at != at { //lint:allow floateq -- deliberate: only bit-identical timestamps batch together
			break
		}
		ev := e.popMin()
		e.live--
		fn := ev.fn
		e.recycle(ev)
		e.now = at
		e.fired++
		n++
		fn(e.now)
	}
	if n == 0 && e.now < horizon {
		e.now = horizon
	}
	return n, at
}

// Reset returns the engine to its initial state — clock at zero, no pending
// events, counters cleared — while keeping the event pool, so the next
// tenancy schedules into warm storage. Every queued event (live or
// cancelled) is recycled; outstanding handles become inert.
func (e *Engine) Reset() {
	for _, ev := range e.events {
		e.recycle(ev)
	}
	for i := range e.events {
		e.events[i] = nil
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.live = 0
}

// compact rebuilds the heap without its cancelled events and recycles them.
// Live events keep their (at, seq) keys, so the pop order — the only thing
// the determinism contract pins — is unchanged.
func (e *Engine) compact() {
	keep := e.events[:0]
	for _, ev := range e.events {
		if ev.cancelled {
			e.recycle(ev)
		} else {
			keep = append(keep, ev)
		}
	}
	// Zero the vacated tail so the backing array stops pinning the moved
	// pointers twice.
	for i := len(keep); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = keep
	// Standard heapify: sift down every internal node, last parent first.
	// (Guard the small cases: Go truncates -2/arity to 0.)
	if n := len(keep); n > 1 {
		for i := (n - 2) / arity; i >= 0; i-- {
			e.siftDown(i)
		}
	}
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

// push appends ev and restores the heap property.
//
//hot:allocfree
func (e *Engine) push(ev *event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !less(e.events[i], e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// popMin removes and returns the heap root without looking at cancellation.
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

// siftDown restores the heap property below node i.
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
		best := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(h[c], h[best]) {
				best = c
			}
		}
		if !less(h[best], node) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = node
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
