// Package sim implements the discrete-event simulation kernel underneath the
// MPDP virtual data plane.
//
// All of MPDP runs in virtual time: a simulated nanosecond clock advanced
// only by the event loop. This substitutes for the paper's wall-clock
// DPDK/Click testbed (see DESIGN.md §2) and makes every experiment
// deterministic and bit-reproducible for a given seed.
//
// The kernel is intentionally minimal: a monotonic clock, a binary heap of
// pending events with stable FIFO ordering for simultaneous events, and
// cancellable event handles. Everything else (queues, cores, NICs) is built
// on top in the vnet package.
//
// The event path allocates nothing once warm. Heap entries are values
// (time, seq, slot): seq is stamped at scheduling and breaks ties, so
// simultaneous events fire in the order they were scheduled. slot indexes
// a slab of callback slots that is recycled through a free list. A
// callback is a Handler, a one-method interface (Fire) implemented by the
// long-lived objects that own hot events and reschedule themselves.
// Scheduling returns a Handle, an (index, generation) value. The slot's
// generation advances on every reuse, so cancelling through a handle kept
// past its event never touches the slot's next occupant.
//
// At and Schedule take a plain func for cold callers. They wrap it in a
// func-typed adapter that implements Handler, so the kernel keeps one
// event representation, one ordering rule and one cancel path.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration spans between two virtual-time points, in nanoseconds.
type Duration = Time

// Convenient virtual-time units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Time with an adaptive unit, for logs and tables.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Handler is a scheduled callback. Hot-path components (lanes, the
// arrival generator, reorder gap timers, tickers) implement it on a
// long-lived object that reschedules itself, so scheduling one of their
// events stores a pointer that already exists instead of allocating a
// closure.
type Handler interface {
	Fire()
}

// funcHandler adapts a plain function to Handler for At and Schedule. A
// func value is pointer-shaped, so the conversion does not allocate beyond
// whatever the caller's closure already did.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Handle names one scheduled event: the index of its slot in the
// simulator's slab and the slot's generation when the event was scheduled.
// A slot's generation advances every time it is reused, so a handle kept
// past its event's firing or cancellation can never reach the slot's next
// occupant. The zero Handle names no event.
type Handle struct {
	slot uint32
	gen  uint32
}

// IsZero reports whether h is the zero Handle.
func (h Handle) IsZero() bool { return h.gen == 0 }

// event is one heap entry, held by value: when, the FIFO tiebreaker among
// simultaneous events, and which slab slot holds the callback.
type event struct {
	at   Time
	seq  uint64
	slot uint32
}

// slot holds one pending callback. h is nil once the event is cancelled;
// the slot itself is released only when its heap entry pops, so the entry
// never points at a reused slot.
type slot struct {
	h    Handler
	gen  uint32
	next uint32 // free-list link: index+1 of the next free slot, 0 ends
}

// Simulator owns the virtual clock and the pending-event heap.
// The zero value is a simulator at time 0 with no events, ready to use.
type Simulator struct {
	now    Time
	events []event
	slots  []slot
	free   uint32 // index+1 of the first free slot, 0 when none
	seq    uint64
	fired  uint64
}

// New returns a simulator at virtual time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of queued (possibly cancelled) events.
func (s *Simulator) Pending() int { return len(s.events) }

// Fired returns the total number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Schedule queues fn to run after delay. A negative delay panics: the
// simulator's clock is monotonic and the past cannot be rewritten.
func (s *Simulator) Schedule(delay Duration, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.ScheduleHandler(delay, funcHandler(fn))
}

// At queues fn to run at absolute virtual time t (>= Now).
func (s *Simulator) At(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.at(t, funcHandler(fn))
}

// ScheduleHandler queues h.Fire to run after delay; see Schedule.
func (s *Simulator) ScheduleHandler(delay Duration, h Handler) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %d", delay))
	}
	t := s.now + delay
	if t < s.now { // int64 overflow: clamp to the end of virtual time
		t = math.MaxInt64
	}
	return s.at(t, h)
}

// at queues h.Fire to run at absolute virtual time t (>= Now). Once
// the slab and heap have grown to the run's peak of pending events,
// scheduling allocates nothing.
//
//mpdp:hotpath bench=BenchmarkSimScheduleFire,BenchmarkHeap10k
func (s *Simulator) at(t Time, h Handler) Handle {
	if t < s.now {
		//lint:allow hotalloc panic path: formats only when a caller schedules into the past
		panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, s.now))
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	i := s.alloc()
	sl := &s.slots[i]
	sl.h = h
	//lint:allow hotalloc amortized: the heap grows only to the run's peak of pending events
	s.events = append(s.events, event{at: t, seq: s.seq, slot: i})
	s.seq++
	s.up(len(s.events) - 1)
	return Handle{slot: i, gen: sl.gen}
}

// alloc takes a slot off the free list, or appends one, and advances its
// generation (skipping zero, which the zero Handle uses).
func (s *Simulator) alloc() uint32 {
	var i uint32
	if s.free != 0 {
		i = s.free - 1
		s.free = s.slots[i].next
	} else {
		i = uint32(len(s.slots))
		//lint:allow hotalloc amortized: the slab grows only to the run's peak of pending events
		s.slots = append(s.slots, slot{})
	}
	sl := &s.slots[i]
	sl.gen++
	if sl.gen == 0 {
		sl.gen = 1
	}
	sl.next = 0
	return i
}

// release returns a popped event's slot to the free list.
func (s *Simulator) release(i uint32) {
	sl := &s.slots[i]
	sl.h = nil
	sl.next = s.free
	s.free = i + 1
}

// Cancel prevents the event h names from firing and reports whether it
// did: false for the zero Handle and for an event that already fired or
// was already cancelled, including one whose slot now holds a newer event.
// Cancel is O(1); the heap entry is dropped lazily when it reaches the top.
func (s *Simulator) Cancel(h Handle) bool {
	if h.gen == 0 || int(h.slot) >= len(s.slots) {
		return false
	}
	sl := &s.slots[h.slot]
	if sl.gen != h.gen || sl.h == nil {
		return false
	}
	sl.h = nil
	return true
}

// Step fires the single earliest event. It returns false when no runnable
// event remains. The event's slot is freed before its handler runs, so a
// handler that reschedules itself reuses the same slot.
//
//mpdp:hotpath bench=BenchmarkSimStep
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		e := s.pop()
		h := s.slots[e.slot].h
		s.release(e.slot)
		if h == nil {
			continue // cancelled
		}
		s.now = e.at
		s.fired++
		h.Fire()
		return true
	}
	return false
}

// Run drains the event queue completely, advancing virtual time as it goes.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil fires events up to and including time t, then sets the clock to
// t even if the queue drained earlier. Events scheduled after t stay queued.
func (s *Simulator) RunUntil(t Time) {
	for s.discardCancelled() && s.events[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the clock by d, firing all events in the window.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now + d) }

// discardCancelled pops cancelled events off the top of the heap and
// reports whether a live one remains there.
func (s *Simulator) discardCancelled() bool {
	for len(s.events) > 0 {
		i := s.events[0].slot
		if s.slots[i].h != nil {
			return true
		}
		s.pop()
		s.release(i)
	}
	return false
}

// The pending events form a binary min-heap ordered by (time, seq), held
// by value in s.events. Hand-rolled rather than container/heap to avoid
// interface boxing on the hottest path of the simulator.

func (s *Simulator) less(i, j int) bool {
	a, b := &s.events[i], &s.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) pop() event {
	h := s.events
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	s.events = h[:n]
	if n > 0 {
		s.down(0)
	}
	return top
}

func (s *Simulator) up(i int) {
	h := s.events
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (s *Simulator) down(i int) {
	h := s.events
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
