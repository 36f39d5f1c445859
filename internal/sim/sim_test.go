package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("final clock = %v, want 30", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	s := New()
	var last Time = -1
	for i := 0; i < 100; i++ {
		d := Duration(i * 7 % 50)
		s.Schedule(d, func() {
			if s.Now() < last {
				t.Fatalf("clock went backwards: %v < %v", s.Now(), last)
			}
			last = s.Now()
		})
	}
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	New().Schedule(1, nil)
}

func TestAtBeforeNowPanics(t *testing.T) {
	s := New()
	s.Schedule(100, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	s.At(50, func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(10, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel of a pending event reported false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Cancel(e) {
		t.Fatal("Cancel reported true for an already-cancelled event")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	s := New()
	e := s.Schedule(10, func() {})
	s.Cancel(e)
	if s.Cancel(e) { // must not panic
		t.Fatal("second Cancel reported true")
	}
	if s.Cancel(Handle{}) { // the zero Handle is safe
		t.Fatal("Cancel of the zero Handle reported true")
	}
	if !(Handle{}).IsZero() || e.IsZero() {
		t.Fatal("IsZero wrong")
	}
	s.Run()
}

func TestCancelOneOfMany(t *testing.T) {
	s := New()
	var fired []int
	evs := make([]Handle, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = s.Schedule(Duration(i+1), func() { fired = append(fired, i) })
	}
	s.Cancel(evs[2])
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// A handle kept past its event must not reach the slot's next occupant.
func TestCancelStaleHandle(t *testing.T) {
	s := New()
	first := s.Schedule(1, func() {})
	s.Run()
	fired := false
	second := s.Schedule(1, func() { fired = true })
	if second.slot != first.slot {
		t.Fatalf("slot not reused: %d then %d", first.slot, second.slot)
	}
	if s.Cancel(first) {
		t.Fatal("Cancel through a fired event's handle reported true")
	}
	s.Run()
	if !fired {
		t.Fatal("stale Cancel suppressed the slot's new occupant")
	}
}

type countHandler struct{ n int }

func (c *countHandler) Fire() { c.n++ }

func TestScheduleHandler(t *testing.T) {
	s := New()
	c := &countHandler{}
	s.ScheduleHandler(5, c)
	s.ScheduleHandler(7, c)
	s.Run()
	if c.n != 2 || s.Now() != 7 || s.Fired() != 2 {
		t.Fatalf("handler fired %d times, clock %v, Fired %d", c.n, s.Now(), s.Fired())
	}
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	New().ScheduleHandler(1, nil)
}

func TestEventSchedulesEvent(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(10, func() {
		times = append(times, s.Now())
		s.Schedule(5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested scheduling produced %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Duration(i*10), func() { count++ })
	}
	s.RunUntil(50)
	if count != 5 {
		t.Fatalf("RunUntil(50) fired %d events, want 5", count)
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("remaining events lost: fired %d total", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("idle RunUntil left clock at %v", s.Now())
	}
}

func TestRunUntilInclusive(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(100, func() { fired = true })
	s.RunUntil(100)
	if !fired {
		t.Fatal("event exactly at boundary did not fire")
	}
}

func TestRunFor(t *testing.T) {
	s := New()
	s.Schedule(100, func() {})
	s.Run()
	s.RunFor(50)
	if s.Now() != 150 {
		t.Fatalf("RunFor: clock = %v, want 150", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	s.Cancel(s.Schedule(1, func() {}))
	if s.Step() {
		t.Fatal("Step with only cancelled events returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Schedule(Duration(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

func TestPending(t *testing.T) {
	s := New()
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending() after Run = %d", s.Pending())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2 {
		t.Fatal("Seconds conversion wrong")
	}
	if (3 * Microsecond).Micros() != 3 {
		t.Fatal("Micros conversion wrong")
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var ticks []Time
	tk := NewTicker(s, 10, func(now Time) { ticks = append(ticks, now) })
	s.RunUntil(35)
	tk.Stop()
	s.RunUntil(100)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks %v, want 3", len(ticks), ticks)
	}
	for i, tm := range ticks {
		if want := Time(10 * (i + 1)); tm != want {
			t.Fatalf("tick %d at %v, want %v", i, tm, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = NewTicker(s, 5, func(Time) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 2 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 2", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	NewTicker(New(), 0, func(Time) {})
}

// Property: any batch of scheduled delays fires in non-decreasing time order,
// and any interleaving of schedules, cancels and steps fires exactly the
// reference (time, seq) order of the events left uncancelled.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fired []Time
		for _, d := range delays {
			s.Schedule(Duration(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	stale := 0
	g := func(ops []uint16) bool {
		r := runCancelProgram(ops)
		stale += r.staleReused
		if r.err != "" {
			t.Log(r.err)
			return false
		}
		if len(r.fired) != len(r.want) {
			return false
		}
		for i := range r.want {
			if r.fired[i] != r.want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if stale == 0 {
		t.Fatal("no program cancelled through a handle whose slot was reused")
	}
}

// Property: heap never loses events — fired count equals scheduled count,
// less the events a cancel really removed.
func TestQuickNoEventLoss(t *testing.T) {
	f := func(delays []uint8) bool {
		s := New()
		count := 0
		for _, d := range delays {
			s.Schedule(Duration(d), func() { count++ })
		}
		s.Run()
		return count == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(ops []uint16) bool {
		r := runCancelProgram(ops)
		return r.err == "" && len(r.fired) == r.scheduled-r.cancelled
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

type cancelProgramResult struct {
	fired, want          []int // event ids in firing order: simulator, reference
	scheduled, cancelled int
	staleReused          int // cancels through a handle whose slot had a newer event
	err                  string
}

// runCancelProgram interprets ops as a random program of schedules, cancels
// (of any earlier handle: pending, cancelled, fired, or one whose slot has
// since been reused) and single steps, on the simulator and on a reference
// model that fires the earliest uncancelled (time, seq) event. The run ends
// by draining both.
func runCancelProgram(ops []uint16) cancelProgramResult {
	type refEvent struct {
		at     Time
		live   bool
		handle Handle
	}
	var r cancelProgramResult
	s := New()
	var ref []refEvent // index = id = seq
	refStep := func() {
		best := -1
		for i, e := range ref {
			if e.live && (best < 0 || e.at < ref[best].at) {
				best = i
			}
		}
		if best >= 0 {
			ref[best].live = false
			r.want = append(r.want, best)
		}
	}
	for _, op := range ops {
		arg := int(op >> 2)
		switch op & 3 {
		case 0, 1:
			id := len(ref)
			h := s.Schedule(Duration(arg%64), func() { r.fired = append(r.fired, id) })
			ref = append(ref, refEvent{at: s.Now() + Duration(arg%64), live: true, handle: h})
			r.scheduled++
		case 2:
			if len(ref) == 0 {
				continue
			}
			e := &ref[arg%len(ref)]
			reused := false
			for _, o := range ref {
				if o.handle.slot == e.handle.slot && o.handle.gen != e.handle.gen && o.live {
					reused = true
				}
			}
			if reused {
				r.staleReused++
			}
			got := s.Cancel(e.handle)
			if got != e.live {
				r.err = "Cancel result disagrees with the reference"
				return r
			}
			if got {
				e.live = false
				r.cancelled++
			}
		case 3:
			s.Step()
			refStep()
		}
	}
	s.Run()
	for len(r.want) < r.scheduled-r.cancelled {
		refStep()
	}
	return r
}

func BenchmarkScheduleAndRun(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Schedule(Duration(i%1000), func() {})
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkHeap10k fills the heap with 10k handler events in scrambled
// time order and drains it, on one simulator whose slab and heap stay at
// their 10k peak after the warm-up round: an alloc-gated heap workout.
func BenchmarkHeap10k(b *testing.B) {
	s := New()
	c := &countHandler{}
	round := func() {
		for j := 0; j < 10000; j++ {
			s.ScheduleHandler(Duration(j*7919%10000), c)
		}
		s.Run()
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// rescheduler fires and schedules itself again a pseudo-random delay
// later, keeping the heap at a constant depth.
type rescheduler struct {
	s     *Simulator
	state uint32
	n     int
}

func (r *rescheduler) Fire() {
	r.n++
	r.state = r.state*1664525 + 1013904223
	r.s.ScheduleHandler(Duration(r.state>>22), r)
}

// BenchmarkSimScheduleFire measures the steady-state handler path: each op
// fires one event whose handler schedules its successor, with 1024 events
// pending. The slab and heap are warm, so the gate holds At and Step
// together at 0 allocs/op.
func BenchmarkSimScheduleFire(b *testing.B) {
	s := New()
	r := &rescheduler{s: s, state: 1}
	for i := 0; i < 1024; i++ {
		r.Fire()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	if s.Pending() != 1024 {
		b.Fatalf("pending %d, want a constant 1024", s.Pending())
	}
}

// BenchmarkSimStep measures the dispatch loop alone: every event is
// scheduled before the timer starts, so the //mpdp:hotpath alloc gate
// covers Step and not At's per-event allocation.
func BenchmarkSimStep(b *testing.B) {
	s := New()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < b.N; i++ {
		s.At(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	if fired != b.N {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}
