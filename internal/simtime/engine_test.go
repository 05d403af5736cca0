package simtime

import (
	"testing"
)

func TestEventsFireInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func(now Seconds) { order = append(order, 3) })
	e.Schedule(1, func(now Seconds) { order = append(order, 1) })
	e.Schedule(2, func(now Seconds) { order = append(order, 2) })
	e.RunUntil(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %g, want 10", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func(now Seconds) { order = append(order, i) })
	}
	e.RunUntil(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func(now Seconds) {})
	e.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, func(now Seconds) {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func(now Seconds) { fired = true })
	if !ev.Pending() {
		t.Fatal("scheduled event not pending")
	}
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("Pending() true after Cancel")
	}
	e.RunUntil(2)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestZeroEventSafe(t *testing.T) {
	var ev Event
	ev.Cancel() // must not panic
	if ev.Pending() {
		t.Fatal("zero event reports pending")
	}
	if ev.At() != 0 {
		t.Fatal("zero event has a timestamp")
	}
}

func TestStaleHandleInert(t *testing.T) {
	// A handle kept across its event's fire must not cancel whatever
	// recycled event struct now occupies the pool slot.
	e := NewEngine()
	firstFired, secondFired := false, false
	stale := e.Schedule(1, func(now Seconds) { firstFired = true })
	e.RunUntil(1.5) // fires and recycles the first event
	fresh := e.Schedule(2, func(now Seconds) { secondFired = true })
	stale.Cancel() // must be a no-op, not cancel the recycled struct
	if !fresh.Pending() {
		t.Fatal("stale Cancel hit the recycled event")
	}
	e.RunUntil(3)
	if !firstFired || !secondFired {
		t.Fatalf("fired = %v/%v, want true/true", firstFired, secondFired)
	}
}

func TestDoubleCancelDoesNotDoubleDecrement(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func(now Seconds) {})
	e.Schedule(2, func(now Seconds) {})
	a.Cancel()
	a.Cancel() // second cancel must be inert, not remove another event
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after double cancel, want 1", got)
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10, func(now Seconds) { fired = true })
	e.RunUntil(5)
	if fired {
		t.Fatal("event past the horizon fired")
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %g, want 5", e.Now())
	}
	e.RunUntil(15)
	if !fired {
		t.Fatal("event not fired after horizon extension")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var times []Seconds
	e.Schedule(1, func(now Seconds) {
		times = append(times, now)
		e.Schedule(now+1, func(now Seconds) { times = append(times, now) })
	})
	e.RunUntil(5)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("chained schedule times %v", times)
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var at Seconds = -1
	e.Schedule(2, func(now Seconds) {
		e.After(3, func(now Seconds) { at = now })
	})
	e.RunUntil(10)
	if at != 5 {
		t.Fatalf("After fired at %g, want 5", at)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Seconds
	e.Tick(0, 1, func(now Seconds) { ticks = append(ticks, now) })
	e.RunUntil(4.5)
	want := []Seconds{0, 1, 2, 3, 4}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Tick(0, 1, func(now Seconds) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(10)
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3", count)
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Tick with zero period did not panic")
		}
	}()
	e.Tick(0, 0, func(now Seconds) {})
}

func TestStep(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func(now Seconds) {})
	e.Schedule(2, func(now Seconds) {})
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if e.Now() != 1 {
		t.Fatalf("clock %g after one step", e.Now())
	}
	if !e.Step() {
		t.Fatal("second Step returned false")
	}
	if e.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func(now Seconds) {})
	e.Schedule(2, func(now Seconds) {})
	a.Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func(now Seconds) {})
	}
	e.RunUntil(100)
	if e.Fired() != 10 {
		t.Fatalf("Fired = %d, want 10", e.Fired())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Seconds {
		e := NewEngine()
		var log []Seconds
		e.Tick(0, 0.7, func(now Seconds) { log = append(log, now) })
		e.Schedule(1.4, func(now Seconds) { log = append(log, -now) })
		e.RunUntil(5)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%97), func(now Seconds) {})
		}
		e.RunUntil(100)
	}
}

// BenchmarkScheduleFireSteady measures the steady-state schedule+fire cycle
// on a warm engine: the per-event cost every simulated arrival and
// completion pays.
func BenchmarkScheduleFireSteady(b *testing.B) {
	e := NewEngine()
	fn := func(now Seconds) {}
	// Warm the engine so slice growth is out of the measured loop.
	for j := 0; j < 64; j++ {
		e.Schedule(float64(j), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i+64), fn)
		e.Step()
	}
}

// BenchmarkDrainBatch measures the batch dispatch path the simulation's
// RunTo drive loop uses: 16 events sharing one grid timestamp drained in a
// single DrainAt call, the shape every control tick with same-instant
// cascades produces.
func BenchmarkDrainBatch(b *testing.B) {
	e := NewEngine()
	fn := func(now Seconds) {}
	// Warm the pool so schedule/fire cycles recycle instead of allocating.
	for j := 0; j < 16; j++ {
		e.Schedule(0, fn)
	}
	e.DrainAt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := float64(i + 1)
		for j := 0; j < 16; j++ {
			e.Schedule(at, fn)
		}
		if n, _ := e.DrainAt(at); n != 16 {
			b.Fatalf("batch fired %d events, want 16", n)
		}
	}
}

// BenchmarkScheduleCancel measures the cancel-heavy pattern the completion
// rescheduler produces: most scheduled events are superseded before firing.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func(now Seconds) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(float64(i), fn)
		ev.Cancel()
		if i%4 == 3 {
			e.Schedule(float64(i), fn)
			e.Step()
		}
	}
}

// BenchmarkScheduleReschedule measures the completion re-key pattern: 64
// servers each hold one pending completion event, every iteration re-keys
// one of them in place, and every fourth iteration fires the earliest, so
// the next re-key of that server schedules afresh from its stale handle.
func BenchmarkScheduleReschedule(b *testing.B) {
	e := NewEngine()
	fn := func(now Seconds) {}
	const servers = 64
	var comp [servers]Event
	for j := range comp {
		comp[j] = e.Schedule(float64(j+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % servers
		comp[j] = e.Reschedule(comp[j], e.Now()+float64(i%7)+0.5, fn)
		if i%4 == 3 {
			e.Step()
		}
	}
}

func TestCancelCompactOrdering(t *testing.T) {
	// Cancel three quarters of a large queue out of its middle, then verify
	// the heap holds exactly the survivors and they still fire in exact
	// (timestamp, scheduling-order) order.
	e := NewEngine()
	var order []int
	var cancels []Event
	for i := 0; i < 400; i++ {
		i := i
		ev := e.Schedule(float64(i%13), func(now Seconds) { order = append(order, i) })
		if i%4 != 0 {
			cancels = append(cancels, ev)
		}
	}
	for k, ev := range cancels {
		ev.Cancel() // each cancel removes its event from the heap at once
		if got, want := len(e.events), 400-(k+1); got != want || e.Pending() != want {
			t.Fatalf("after %d cancels heap holds %d entries (Pending %d), want %d", k+1, got, e.Pending(), want)
		}
	}
	if got, want := e.Pending(), 100; got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	e.RunUntil(20)
	if len(order) != 100 {
		t.Fatalf("fired %d events, want 100", len(order))
	}
	// Survivors are i%4==0 in increasing i within each timestamp bucket;
	// buckets fire in timestamp order (i%13).
	want := make([]int, 0, 100)
	for ts := 0; ts < 13; ts++ {
		for i := 0; i < 400; i++ {
			if i%4 == 0 && i%13 == ts {
				want = append(want, i)
			}
		}
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (cancellation broke ordering)", i, order[i], want[i])
		}
	}
}

func TestCompactionRecyclesIntoPool(t *testing.T) {
	e := NewEngine()
	fn := func(now Seconds) {}
	var evs []Event
	for i := 0; i < 256; i++ {
		evs = append(evs, e.Schedule(float64(i), fn))
	}
	for _, ev := range evs[:200] {
		ev.Cancel()
	}
	// Cancellation is eager: the heap holds exactly the pending events, and
	// every cancelled struct went straight back to the pool.
	if got := len(e.events); got != e.Pending() || got != 56 {
		t.Fatalf("heap holds %d entries for %d pending events, want 56", got, e.Pending())
	}
	if len(e.free) != 200 {
		t.Fatalf("pool holds %d structs after 200 cancels, want 200", len(e.free))
	}
	e.RunUntil(300)
	if e.Fired() != 56 {
		t.Fatalf("Fired = %d, want 56", e.Fired())
	}
}

func TestScheduleFireAllocBudget(t *testing.T) {
	// The pool's contract: steady-state schedule+fire on a warm engine is
	// allocation-free (≤1 amortized covers pathological pauses).
	e := NewEngine()
	fn := func(now Seconds) {}
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i), fn)
	}
	e.RunUntil(64)
	next := 65.0
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(next, fn)
		e.Step()
		next++
	})
	if avg > 1 {
		t.Fatalf("schedule+fire allocates %.2f/op, want <= 1 amortized", avg)
	}
}

func TestCancelAllocBudget(t *testing.T) {
	e := NewEngine()
	fn := func(now Seconds) {}
	next := 1.0
	avg := testing.AllocsPerRun(1000, func() {
		ev := e.Schedule(next, fn)
		ev.Cancel()
		next++
	})
	if avg > 1 {
		t.Fatalf("schedule+cancel allocates %.2f/op, want <= 1 amortized", avg)
	}
}

// TestRescheduleCancelAllocFree pins the steady state of the completion
// path at exactly zero allocations: re-keying a pending event, re-arming
// from a fired handle, and schedule+cancel all run on the warm pool.
func TestRescheduleCancelAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func(now Seconds) {}
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i), fn)
	}
	e.RunUntil(64)
	h := e.Schedule(65, fn)
	next := 66.0
	avg := testing.AllocsPerRun(1000, func() {
		h = e.Reschedule(h, next, fn) // pending: re-keyed in place
		e.Step()
		h = e.Reschedule(h, next+1, fn) // fired: scheduled afresh
		e.Schedule(next+2, fn).Cancel()
		next += 2
	})
	if avg != 0 {
		t.Fatalf("reschedule+cancel allocates %.2f/op, want 0", avg)
	}
}

func TestRescheduleKeepsHandleAndTakesNewSeq(t *testing.T) {
	// Re-keying an event to the timestamp of a later-scheduled one must
	// order it after that one, exactly as Cancel followed by Schedule would.
	e := NewEngine()
	var order []string
	a := e.Schedule(1, func(now Seconds) { order = append(order, "a") })
	e.Schedule(2, func(now Seconds) { order = append(order, "b") })
	moved := e.Reschedule(a, 2, func(now Seconds) { order = append(order, "a2") })
	if moved != a || !a.Pending() || a.At() != 2 {
		t.Fatalf("Reschedule of a pending event returned %v (pending %v, at %g)", moved, a.Pending(), a.At())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after re-key, want 2", e.Pending())
	}
	e.RunUntil(3)
	if len(order) != 2 || order[0] != "b" || order[1] != "a2" {
		t.Fatalf("fire order %v, want [b a2]", order)
	}
	// a has fired: Reschedule on it schedules a new event.
	fresh := e.Reschedule(a, 4, func(now Seconds) { order = append(order, "c") })
	if a.Pending() || !fresh.Pending() {
		t.Fatal("Reschedule of a fired handle did not schedule afresh")
	}
	e.RunUntil(5)
	if len(order) != 3 || order[2] != "c" {
		t.Fatalf("fire order %v, want [b a2 c]", order)
	}
}

func TestPendingO1AfterFire(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func(now Seconds) {})
	}
	e.Step()
	e.Step()
	if got := e.Pending(); got != 8 {
		t.Fatalf("Pending = %d after two fires, want 8", got)
	}
}

func TestTickerRestart(t *testing.T) {
	e := NewEngine()
	var ticks []Seconds
	tk := e.Tick(0, 1, func(now Seconds) { ticks = append(ticks, now) })
	e.RunUntil(2.5) // ticks at 0, 1, 2
	tk.Stop()
	tk.Stop() // double Stop is a no-op
	e.RunUntil(5)
	if len(ticks) != 3 {
		t.Fatalf("ticks after Stop = %v", ticks)
	}
	tk.Restart(7)
	e.RunUntil(8.5) // ticks at 7, 8
	want := []Seconds{0, 1, 2, 7, 8}
	if len(ticks) != len(want) {
		t.Fatalf("ticks after Restart = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks after Restart = %v, want %v", ticks, want)
		}
	}
}

func TestTickerRestartWhileRunningPanics(t *testing.T) {
	e := NewEngine()
	tk := e.Tick(0, 1, func(now Seconds) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Restart of a running ticker did not panic")
		}
	}()
	tk.Restart(5)
}
