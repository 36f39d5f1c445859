package transport

import (
	"sync/atomic"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
)

// reorderDriver funnels received frames through the existing core.Reorder
// buffer — hole punching, gap timeouts, late-straggler accounting and all —
// by running a private discrete-event simulator whose clock is advanced to
// wall time. One goroutine owns the simulator and the reorder buffer, so
// none of core's single-threaded machinery needs locks: deduplicated
// frames flow in over a channel, gap timers fire whenever the clock is
// advanced past them (each submit, plus an idle tick so a silent wire still
// releases stragglers).
type reorderDriver struct {
	clock   func() sim.Time // receiver's monotone unix-nano clock
	sim     *sim.Simulator
	rb      *core.Reorder
	in      chan *packet.Packet
	stats   chan chan core.ReorderStats
	stopped chan struct{}
	tick    time.Duration

	// gapSkipped mirrors the reorder buffer's abandoned-seq counter after
	// every driver step, so callers applying backpressure (the loopback
	// harness) can treat timed-out losses as resolved without a stats
	// round trip per packet.
	gapSkipped atomic.Uint64

	final core.ReorderStats // valid after close()
}

// newReorderDriver wires a core.Reorder with the given gap timeout (wall
// nanoseconds) to a wall-clock pump. deliver and onLost run on the driver
// goroutine.
func newReorderDriver(clock func() sim.Time, timeout time.Duration,
	deliver core.DeliverFunc, onLost core.DeliverFunc, queue int) *reorderDriver {
	s := sim.New()
	// Anchor the simulator at the current wall clock so the first gap
	// timer is scheduled relative to "now", not to 1970.
	s.RunUntil(clock())
	// Each RunUntil jumps the clock by the wall time since the last step,
	// so a gap timer re-armed 1 ns out would fire once per elapsed
	// nanosecond (millions of events per hole). A re-arm floor of 1/64 of
	// the timeout bounds that at 64 events and delays a gap release by at
	// most as much.
	rb := core.NewReorder(s, sim.Duration(timeout.Nanoseconds()),
		sim.Duration(timeout.Nanoseconds()/64), deliver)
	if onLost != nil {
		rb.OnLost(onLost)
	}
	tick := timeout / 4
	if tick <= 0 || tick > 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	return &reorderDriver{
		clock:   clock,
		sim:     s,
		rb:      rb,
		in:      make(chan *packet.Packet, queue),
		stats:   make(chan chan core.ReorderStats),
		stopped: make(chan struct{}),
		tick:    tick,
	}
}

func (d *reorderDriver) start() { go d.run() }

func (d *reorderDriver) run() {
	defer close(d.stopped)
	ticker := time.NewTicker(d.tick) //lint:allow determinism wall-clock pump for the reorder gap timers
	defer ticker.Stop()
	for {
		select {
		case p, ok := <-d.in:
			if !ok {
				// Drain: advance past every armed timer, then flush what
				// remains in per-flow sequence order.
				d.sim.RunUntil(d.clock())
				d.rb.Flush()
				d.final = d.rb.Stats()
				d.gapSkipped.Store(d.final.GapSkipped)
				return
			}
			d.sim.RunUntil(d.clock())
			d.rb.Submit(p)
			d.gapSkipped.Store(d.rb.Stats().GapSkipped)
		case reply := <-d.stats:
			reply <- d.rb.Stats()
		case <-ticker.C:
			d.sim.RunUntil(d.clock())
			d.gapSkipped.Store(d.rb.Stats().GapSkipped)
		}
	}
}

// snapshotStats returns the reorder counters, answered by the driver
// goroutine itself while running (race-free by construction) and from the
// final snapshot after close.
func (d *reorderDriver) snapshotStats() core.ReorderStats {
	reply := make(chan core.ReorderStats, 1)
	select {
	case d.stats <- reply:
		return <-reply
	case <-d.stopped:
		return d.final
	}
}

// close stops the driver and waits for the final flush.
func (d *reorderDriver) close() {
	close(d.in)
	<-d.stopped
}
