package sim

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// It is the building block for poll-mode loops and periodic telemetry.
type Ticker struct {
	sim    *Simulator
	period Duration
	fn     func(now Time)
	ev     Handle
	stop   bool
}

// NewTicker starts a ticker on s firing every period, first at now+period.
// It panics if period <= 0.
func NewTicker(s *Simulator, period Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.sim.ScheduleHandler(t.period, (*tick)(t))
}

// tick is the Ticker's event handler; a distinct type keeps Fire out of
// the Ticker's own method set.
type tick Ticker

func (k *tick) Fire() {
	t := (*Ticker)(k)
	if t.stop {
		return
	}
	t.fn(t.sim.Now())
	if !t.stop {
		t.arm()
	}
}

// Stop halts the ticker; subsequent ticks are cancelled.
func (t *Ticker) Stop() {
	t.stop = true
	t.sim.Cancel(t.ev)
}
