package simtime

import (
	"sort"
	"testing"
)

// refEvent is one pending event of the reference queue. tok names the
// event across re-keys, the way an engine event struct does; id names the
// callback currently attached to it.
type refEvent struct {
	at  Seconds
	seq uint64
	tok int
	id  int
}

// refEngine is the naive model FuzzEngineOrder checks the heap against: a
// slice kept sorted by (at, seq) with linear removal.
type refEngine struct {
	now     Seconds
	seq     uint64
	nextTok int
	nextID  int
	events  []refEvent
	log     []int
}

func (r *refEngine) find(tok int) int {
	for i, ev := range r.events {
		if ev.tok == tok {
			return i
		}
	}
	return -1
}

func (r *refEngine) insert(ev refEvent) {
	i := sort.Search(len(r.events), func(i int) bool {
		o := r.events[i]
		//lint:allow floateq -- exact tie-break, mirroring the engine's less
		if o.at != ev.at {
			return o.at > ev.at
		}
		return o.seq > ev.seq
	})
	r.events = append(r.events, refEvent{})
	copy(r.events[i+1:], r.events[i:])
	r.events[i] = ev
}

func (r *refEngine) schedule(at Seconds, id int) int {
	tok := r.nextTok
	r.nextTok++
	r.insert(refEvent{at: at, seq: r.seq, tok: tok, id: id})
	r.seq++
	return tok
}

func (r *refEngine) cancel(tok int) {
	if i := r.find(tok); i >= 0 {
		r.events = append(r.events[:i], r.events[i+1:]...)
	}
}

func (r *refEngine) reschedule(tok int, at Seconds, id int) int {
	i := r.find(tok)
	if i < 0 {
		return r.schedule(at, id)
	}
	r.events = append(r.events[:i], r.events[i+1:]...)
	r.insert(refEvent{at: at, seq: r.seq, tok: tok, id: id})
	r.seq++
	return tok
}

// fire pops the earliest event and runs the shared callback rule.
func (r *refEngine) fire() {
	ev := r.events[0]
	r.events = r.events[1:]
	r.now = ev.at
	r.log = append(r.log, ev.id)
	if spawnsChild(ev.id) {
		id := r.nextID
		r.nextID++
		r.schedule(r.now, id)
	}
}

func (r *refEngine) drainAt(horizon Seconds) (int, Seconds) {
	if len(r.events) == 0 || r.events[0].at > horizon {
		if r.now < horizon {
			r.now = horizon
		}
		return 0, 0
	}
	at := r.events[0].at
	n := 0
	//lint:allow floateq -- exact batch membership, mirroring DrainAt
	for len(r.events) > 0 && r.events[0].at == at {
		r.fire()
		n++
	}
	return n, at
}

func (r *refEngine) runUntil(horizon Seconds) {
	for len(r.events) > 0 && r.events[0].at <= horizon {
		r.fire()
	}
	if r.now < horizon {
		r.now = horizon
	}
}

// spawnsChild is the callback rule both sides follow: some callbacks
// schedule a follow-up at their own instant, which exercises same-instant
// batch joining in DrainAt.
func spawnsChild(id int) bool { return id%7 == 3 }

// engWorld drives the real engine with the same callback rule.
type engWorld struct {
	e      *Engine
	nextID int
	log    []int
}

func (w *engWorld) cb(id int) func(now Seconds) {
	return func(now Seconds) {
		w.log = append(w.log, id)
		if spawnsChild(id) {
			cid := w.nextID
			w.nextID++
			w.e.Schedule(now, w.cb(cid))
		}
	}
}

// checkHeap asserts the engine's structural invariants: every slot's
// event knows its index, is pending, and no child orders before its parent.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i, ev := range e.events {
		if ev.idx != i {
			t.Fatalf("events[%d].idx = %d", i, ev.idx)
		}
		if !(Event{ev: ev, gen: ev.gen}).Pending() {
			t.Fatalf("events[%d] is not pending", i)
		}
		if i > 0 && less(ev, e.events[(i-1)/arity]) {
			t.Fatalf("heap order broken at slot %d", i)
		}
	}
}

// FuzzEngineOrder runs random sequences of Schedule, Cancel, Reschedule
// (on live, fired, cancelled and zero handles), Step, DrainAt and RunUntil
// against refEngine. The firing order, clock, DrainAt results, Pending()
// and every handle's Pending/At must agree after each operation, and the
// heap must hold exactly the pending events.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 4, 0})
	f.Add([]byte{0, 2, 0, 2, 2, 0, 3, 1, 5, 5, 5, 9, 4, 4})
	f.Add([]byte{0, 0, 0, 0, 3, 0, 6, 3, 1, 4, 5, 0, 2, 1, 3, 9, 1})
	f.Add([]byte{1, 0, 0, 5, 0, 5, 0, 5, 7, 0, 7, 1, 3, 2, 2, 6, 7, 4, 4, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 384 {
			ops = ops[:384]
		}
		w := &engWorld{e: NewEngine()}
		r := &refEngine{}
		// handles[k] and toks[k] are one fuzzed handle on each side; the
		// slot past the end stands for the zero handle.
		var handles []Event
		var toks []int
		arg := func(i int) byte {
			if i < len(ops) {
				return ops[i]
			}
			return 0
		}
		pick := func(b byte) (Event, int) {
			k := int(b) % (len(handles) + 1)
			if k == len(handles) {
				return Event{}, -1
			}
			return handles[k], toks[k]
		}
		for i := 0; i < len(ops); i += 3 {
			op, a, b := ops[i]%7, arg(i+1), arg(i+2)
			// Coarse half-second offsets make timestamp ties common.
			at := w.e.Now() + Seconds(a%8)/2
			switch op {
			case 0, 1:
				id := w.nextID
				w.nextID++
				r.nextID++
				handles = append(handles, w.e.Schedule(at, w.cb(id)))
				toks = append(toks, r.schedule(at, id))
			case 2:
				h, tok := pick(b)
				h.Cancel()
				r.cancel(tok)
			case 3:
				h, tok := pick(b)
				id := w.nextID
				w.nextID++
				r.nextID++
				handles = append(handles, w.e.Reschedule(h, at, w.cb(id)))
				toks = append(toks, r.reschedule(tok, at, id))
			case 4:
				got, want := w.e.Step(), len(r.events) > 0
				if want {
					r.fire()
				}
				if got != want {
					t.Fatalf("op %d: Step = %v, want %v", i, got, want)
				}
			case 5:
				n, bat := w.e.DrainAt(at)
				wn, wat := r.drainAt(at)
				//lint:allow floateq -- both sides must return the identical stamp
				if n != wn || bat != wat {
					t.Fatalf("op %d: DrainAt(%g) = (%d, %g), want (%d, %g)", i, at, n, bat, wn, wat)
				}
			case 6:
				w.e.RunUntil(at)
				r.runUntil(at)
			}

			checkHeap(t, w.e)
			if got, want := w.e.Pending(), len(r.events); got != want || len(w.e.events) != want {
				t.Fatalf("op %d: Pending = %d, heap %d, want %d", i, got, len(w.e.events), want)
			}
			//lint:allow floateq -- both clocks take the same assigned values
			if w.e.Now() != r.now {
				t.Fatalf("op %d: clock %g, want %g", i, w.e.Now(), r.now)
			}
			if len(w.log) != len(r.log) {
				t.Fatalf("op %d: fired %v, want %v", i, w.log, r.log)
			}
			for j := range r.log {
				if w.log[j] != r.log[j] {
					t.Fatalf("op %d: fired %v, want %v", i, w.log, r.log)
				}
			}
			for k, h := range handles {
				ri := r.find(toks[k])
				if h.Pending() != (ri >= 0) {
					t.Fatalf("op %d: handle %d Pending = %v, want %v", i, k, h.Pending(), ri >= 0)
				}
				want := Seconds(0)
				if ri >= 0 {
					want = r.events[ri].at
				}
				//lint:allow floateq -- both sides store the same stamp
				if h.At() != want {
					t.Fatalf("op %d: handle %d At = %g, want %g", i, k, h.At(), want)
				}
			}
		}
	})
}
