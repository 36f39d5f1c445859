package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/live"
	"mpdp/internal/obs"
	"mpdp/internal/sim"
)

// PathConfig names one wire path: a distinct local/remote UDP socket pair.
type PathConfig struct {
	// LocalAddr is the local bind address ("" lets the kernel pick an
	// ephemeral port). Distinct local addresses are what make the paths
	// independently routable (and independently impairable).
	LocalAddr string
	// RemoteAddr is the receiver endpoint for this path.
	RemoteAddr string
}

// SenderConfig configures a multipath Sender.
type SenderConfig struct {
	// Paths are the wire paths, at least one.
	Paths []PathConfig
	// Scheduler picks paths per packet (default SchedHedge).
	Scheduler SchedulerName
	// HedgeK is how many copies SchedHedge sends (default 2).
	HedgeK int
	// Deadline is the per-packet latency budget SchedDeadline protects
	// (default 2 ms). Ignored by the other schedulers.
	Deadline time.Duration
	// DeadlineMargin multiplies the path's RTT jitter in SchedDeadline's
	// risk estimate (default 3, clamped to [0, 64]).
	DeadlineMargin float64
	// DupBudgetBytesPerSec and DupBudgetBurst configure SchedDeadline's
	// global duplication-bytes token bucket. Both zero means duplication is
	// disabled entirely: the scheduler degrades to its best-single-path
	// choice. A zero burst with a positive rate defaults to 10 ms of rate.
	DupBudgetBytesPerSec float64
	DupBudgetBurst       float64
	// Health tunes the per-path state machine; times are wall nanoseconds.
	// The zero value takes core's defaults, which suit a loopback wire;
	// real networks want SuspectTimeout/QuarantineBackoff well above RTT.
	Health core.HealthConfig
	// Impairer, when non-nil, intercepts every outgoing frame (fault
	// injection for tests and experiments).
	Impairer Impairer
	// MaintainEvery runs the health sweep once per this many sends
	// (default 16, mirroring core).
	MaintainEvery int
	// Spans, when non-nil, records encode and socket-write stage latency.
	Spans *Spans
	// OnEcho is invoked from a path's reader goroutine for each echoed
	// frame, with the measured round-trip time.
	OnEcho func(path int, h Header, rtt time.Duration)
	// Verifier, when non-nil, is told about every application packet
	// before its first wire copy is written (so a delivery can never race
	// ahead of its send record).
	Verifier *Verifier
	// Trace, when non-nil, records sampled per-frame lifecycle events
	// (enqueue, scheduler verdict, per-copy tx, ack receipt) into a wire
	// flight recorder for cross-endpoint tail attribution. Nil disables
	// every capture site: an untraced sender behaves byte-identically.
	Trace *obs.WireRecorder
}

// senderPath is one wire path's socket plus its ack-accounting and health
// state. pathSeq and the scratch buffer belong to the Send goroutine; the
// accounting fields and tracker are guarded by Sender.mu (shared between
// Send and this path's ack reader).
type senderPath struct {
	id   uint16
	conn *net.UDPConn

	health  *core.HealthTracker
	pathSeq uint64 // last wire seq assigned on this path

	// Cumulative ack state: the receiver reports (highest pathSeq seen,
	// total frames received); deltas against the previous report yield the
	// newly-delivered and newly-lost counts fed to the health machine.
	ackHigh uint64
	ackRecv uint64

	sent      uint64
	acked     uint64
	lost      uint64
	refused   uint64
	rttNanos  int64 // EWMA, 0 until the first ack carries an RTT echo
	rttJitter int64 // EWMA of |rtt - smoothed rtt|; the wire's fluctuation signal
	lastEcho  int64 // newest SendNanos echo folded into the RTT EWMA

	scratch []byte
}

// plan is one wire copy of a packet: its path, path seq and frame flags.
type plan struct {
	path    *senderPath
	pathSeq uint64
	flags   uint8
}

func (p *senderPath) eligible() bool { return p.health.Eligible() }
func (p *senderPath) probing() bool  { return p.health.State() == core.HealthProbing }
func (p *senderPath) inflight() int  { return p.health.InFlight() }

// Sender sprays one logical flow stream across N UDP paths. Send is
// single-goroutine (like live.Ingress): callers serialize their own
// submission; the per-path ack readers run concurrently and share only the
// mutex-guarded accounting.
type Sender struct {
	cfg   SenderConfig
	paths []*senderPath
	sched scheduler

	plans []plan // Send's per-packet copy list, reused across calls

	mu       sync.Mutex
	flowSeq  map[uint64]uint64 // next per-flow seq (the reorder key)
	packets  uint64
	frames   uint64
	canaries uint64
	dupBytes uint64 // payload bytes of extra wire copies (hedge + deadline + canary)
	sinceMnt int

	wg       sync.WaitGroup
	delayers sync.WaitGroup
	closed   chan struct{}
}

// Dial opens every path's socket and starts the ack readers.
func Dial(cfg SenderConfig) (*Sender, error) {
	if len(cfg.Paths) == 0 {
		return nil, fmt.Errorf("transport: no paths configured")
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = SchedHedge
	}
	if cfg.HedgeK == 0 {
		cfg.HedgeK = 2
	}
	if cfg.MaintainEvery == 0 {
		cfg.MaintainEvery = 16
	}
	s := &Sender{
		cfg: cfg,
		sched: scheduler{
			name:        cfg.Scheduler,
			hedgeK:      cfg.HedgeK,
			canaryEvery: canaryEvery(cfg.Health),
			picks:       make([]int, 0, len(cfg.Paths)),
			elig:        make([]int, 0, len(cfg.Paths)),
		},
		flowSeq: make(map[uint64]uint64),
		closed:  make(chan struct{}),
	}
	if cfg.Scheduler == SchedDeadline {
		deadline := cfg.Deadline
		if deadline == 0 {
			deadline = 2 * time.Millisecond
		}
		margin := cfg.DeadlineMargin
		if !(margin > 0) { // zero, negative, or NaN take the default
			margin = 3
		}
		if margin > 64 {
			margin = 64
		}
		s.sched.deadlineNanos = deadline.Nanoseconds()
		s.sched.margin = margin
		if cfg.DupBudgetBytesPerSec > 0 || cfg.DupBudgetBurst > 0 {
			s.sched.budget = newWireDupBudget(cfg.DupBudgetBytesPerSec, cfg.DupBudgetBurst)
		}
	}
	for i, pc := range cfg.Paths {
		raddr, err := net.ResolveUDPAddr("udp", pc.RemoteAddr)
		if err != nil {
			s.closeConns()
			return nil, fmt.Errorf("transport: path %d remote %q: %w", i, pc.RemoteAddr, err)
		}
		var laddr *net.UDPAddr
		if pc.LocalAddr != "" {
			laddr, err = net.ResolveUDPAddr("udp", pc.LocalAddr)
			if err != nil {
				s.closeConns()
				return nil, fmt.Errorf("transport: path %d local %q: %w", i, pc.LocalAddr, err)
			}
		}
		conn, err := net.DialUDP("udp", laddr, raddr)
		if err != nil {
			s.closeConns()
			return nil, fmt.Errorf("transport: path %d dial: %w", i, err)
		}
		conn.SetWriteBuffer(1 << 20) //lint:allow erroreat best-effort socket buffer sizing
		p := &senderPath{
			id:      uint16(i),
			conn:    conn,
			health:  core.NewHealthTracker(cfg.Health),
			scratch: make([]byte, 0, HeaderLen+MaxPayload),
		}
		s.paths = append(s.paths, p)
	}
	for _, p := range s.paths {
		s.wg.Add(1)
		go s.readAcks(p)
	}
	return s, nil
}

func canaryEvery(cfg core.HealthConfig) int {
	if cfg.Disable {
		return 0
	}
	if cfg.CanaryEvery != 0 {
		return cfg.CanaryEvery
	}
	return 16
}

func (s *Sender) closeConns() {
	for _, p := range s.paths {
		if p.conn != nil {
			p.conn.Close() //lint:allow erroreat best-effort teardown of a UDP socket
		}
	}
}

// Send schedules payload onto one or more paths (hedging may emit several
// wire copies of the same flow seq) and returns the assigned per-flow
// sequence number. Not safe for concurrent use — callers own a single
// submission goroutine.
//
//mpdp:hotpath bench=BenchmarkSenderSend
func (s *Sender) Send(flowID uint64, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, ErrTooLarge
	}
	now := nowNanos()

	s.mu.Lock()
	s.sinceMnt++
	if s.sinceMnt >= s.cfg.MaintainEvery {
		s.sinceMnt = 0
		for _, p := range s.paths {
			p.health.Maintain(sim.Time(now))
		}
	}
	picks, canaryIdx := s.sched.pick(s.paths, now, len(payload))
	verdict := s.sched.verdict
	seq := s.flowSeq[flowID]
	s.flowSeq[flowID] = seq + 1
	s.packets++
	if canaryIdx >= 0 {
		s.canaries++
	}
	// Assign wire seqs and charge health before releasing the lock, so an
	// ack racing the socket write can never observe inflight underflow.
	plans := s.plans[:0]
	for idx, i := range picks {
		p := s.paths[i]
		p.pathSeq++
		p.sent++
		s.frames++
		p.health.ObserveSent(sim.Time(now), 1)
		var flags uint8
		if idx > 0 {
			flags |= FlagDup
			// Extra wire copies — hedged, deadline escalations, canary
			// mirrors — bill their payload to the duplication-cost axis.
			s.dupBytes += uint64(len(payload))
		}
		if idx == canaryIdx {
			flags |= FlagProbe
		}
		//lint:allow hotalloc grows once to the widest pick (at most one copy per path), then reused
		plans = append(plans, plan{p, p.pathSeq, flags})
	}
	s.plans = plans
	s.mu.Unlock()

	if v := s.cfg.Verifier; v != nil {
		v.NoteSent(flowID, seq)
	}

	// The trace's enqueue timestamp IS the SendNanos stamped into every
	// copy's header, so the receiver can reconstruct it from the echo.
	tr := s.cfg.Trace
	sampled := tr != nil && tr.Sampled(flowID, seq)
	if sampled {
		tr.Emit(obs.WireEvent{Nanos: now, Kind: obs.WireEnqueue, Path: -1,
			FlowID: flowID, Seq: seq, A: int64(len(payload))})
		tr.Emit(obs.WireEvent{Nanos: now, Kind: obs.WireSched,
			Path: int32(plans[0].path.id), FlowID: flowID, Seq: seq,
			A: int64(len(plans)), B: verdict})
	}

	var firstErr error
	for _, pl := range plans {
		h := Header{
			Flags:     pl.flags,
			PathID:    pl.path.id,
			FlowID:    flowID,
			Seq:       seq,
			PathSeq:   pl.pathSeq,
			SendNanos: now,
		}
		if err := s.writeFrame(pl.path, &h, payload, sampled); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return seq, firstErr
}

// writeFrame encodes and transmits one wire frame, applying the impairer
// verdict. Socket writes happen outside the sender lock. sampled marks
// frames whose (flow, seq) is in the wire trace's sample: each copy that
// actually reaches the socket emits a tx event stamped just before its
// first write.
func (s *Sender) writeFrame(p *senderPath, h *Header, payload []byte, sampled bool) error {
	t0 := nowNanos()
	buf, err := AppendFrame(p.scratch[:0], h, payload)
	if err != nil {
		return err
	}
	p.scratch = buf[:0]
	if sp := s.cfg.Spans; sp != nil {
		sp.Encode.Record(nowNanos() - t0)
	}

	writes := 1
	if im := s.cfg.Impairer; im != nil {
		v := im.Impair(int(h.PathID))
		if v.Drop {
			return nil // a silent wire loss: the receiver sees a path-seq gap
		}
		if v.Duplicate {
			writes = 2
		}
		if v.Delay > 0 {
			s.writeDelayed(p, *h, buf, writes, v.Delay, sampled)
			return nil
		}
	}
	var werr error
	var txNow int64
	if sampled {
		txNow = nowNanos()
	}
	for i := 0; i < writes; i++ {
		if err := s.write(p, buf); err != nil && werr == nil {
			werr = err
		}
	}
	if werr == nil {
		s.traceTx(h, sampled, txNow)
	}
	return werr
}

// writeDelayed writes frame writes times after delay, from a timer. The
// frame and header are copied: the path's scratch buffer and the caller's
// header are reused by the next Send before the timer fires.
func (s *Sender) writeDelayed(p *senderPath, h Header, frame []byte, writes int, delay time.Duration, sampled bool) {
	//lint:allow hotalloc impairer-injected delay: fault injection, not the steady-state path
	own := make([]byte, len(frame))
	copy(own, frame)
	s.delayers.Add(1)
	//lint:allow hotalloc impairer-injected delay: the timer closure owns its frame and header copies
	time.AfterFunc(delay, func() { //lint:allow determinism impairer-injected wire delay
		defer s.delayers.Done()
		select {
		case <-s.closed:
			return
		default:
		}
		txNow := nowNanos()
		for i := 0; i < writes; i++ {
			s.write(p, own) //lint:allow erroreat write already fed the failure to health; a delayed frame has no caller to tell
		}
		s.traceTx(&h, sampled, txNow)
	})
}

// traceTx emits the copy's tx event and records the sender_queue stage
// (accept → this copy's socket write, all sender clock). txNow is read
// before the write, so a sender descheduled after the write cannot stamp
// the copy later than the receiver saw it: the merge layer's clock-offset
// estimate relies on tx never following rx on a shared clock.
func (s *Sender) traceTx(h *Header, sampled bool, txNow int64) {
	if !sampled {
		return
	}
	s.cfg.Trace.Emit(obs.WireEvent{Nanos: txNow, Kind: obs.WireTx,
		Path: int32(h.PathID), FlowID: h.FlowID, Seq: h.Seq, PathSeq: h.PathSeq,
		A: int64(h.Flags)})
	if sp := s.cfg.Spans; sp != nil && sp.SenderQueue != nil {
		sp.SenderQueue.Record(txNow - h.SendNanos)
	}
}

// write performs the socket write and feeds the result to health.
func (s *Sender) write(p *senderPath, frame []byte) error {
	t0 := nowNanos()
	_, err := p.conn.Write(frame)
	if sp := s.cfg.Spans; sp != nil {
		sp.SocketWrite.Record(nowNanos() - t0)
	}
	if err != nil {
		s.mu.Lock()
		p.refused++
		p.health.ObserveSendRefused(sim.Time(nowNanos()))
		s.mu.Unlock()
		return err
	}
	return nil
}

// readAcks consumes ack and echo frames from one path's socket until it is
// closed.
func (s *Sender) readAcks(p *senderPath) {
	defer s.wg.Done()
	buf := make([]byte, HeaderLen+MaxPayload)
	for {
		n, err := p.conn.Read(buf)
		if err != nil {
			return // socket closed (or ICMP-refused): Close tears us down
		}
		h, _, err := DecodeFrame(buf[:n])
		if err != nil {
			continue // garbage on the wire is not our ack
		}
		switch {
		case h.IsAck():
			s.handleAck(p, h)
		case h.Flags&FlagEcho != 0:
			if fn := s.cfg.OnEcho; fn != nil {
				fn(int(p.id), h, time.Duration(nowNanos()-h.SendNanos))
			}
		}
	}
}

// handleAck folds one cumulative ack report into the path's accounting and
// health. Ack frames carry: PathSeq = highest wire seq the receiver has
// seen on this path, Seq = total frames it has received on this path, and
// SendNanos echoing the newest data frame's send timestamp (RTT sample).
func (s *Sender) handleAck(p *senderPath, h Header) {
	now := nowNanos()
	s.mu.Lock()
	defer s.mu.Unlock()
	high, recv := h.PathSeq, h.Seq
	if high < p.ackHigh || recv < p.ackRecv {
		return // reordered/duplicated ack: older than what we've processed
	}
	newDelivered := int(recv - p.ackRecv)
	// The gap (high - recv) is how many frames are currently missing below
	// the high-water mark; its growth since the last report is the newly
	// conclusive loss. Shrinkage (a straggler filled a hole) clamps to 0 —
	// the earlier loss verdict already charged the health machine.
	newLost := int((high - recv)) - int(p.ackHigh-p.ackRecv)
	if newLost < 0 {
		newLost = 0
	}
	p.ackHigh, p.ackRecv = high, recv
	p.acked += uint64(newDelivered)
	p.lost += uint64(newLost)
	// RTT sampling keys on the echo's freshness, not the ack's: a
	// duplicated ack, or a sweep ack repeating the newest echo, would pass
	// the cumulative guard above yet re-sample the same send timestamp
	// against a later `now` — inflating the EWMA with phantom latency.
	// Only a strictly newer echo yields a sample; clock-skewed echoes from
	// the future (rtt ≤ 0) are rejected rather than folded in.
	var rttSample int64
	if h.SendNanos > p.lastEcho {
		p.lastEcho = h.SendNanos
		rtt := now - h.SendNanos
		if rtt > 0 {
			rttSample = rtt
			if p.rttNanos == 0 {
				p.rttNanos = rtt
			} else {
				dev := rtt - p.rttNanos
				if dev < 0 {
					dev = -dev
				}
				p.rttNanos += (rtt - p.rttNanos) / 8
				p.rttJitter += (dev - p.rttJitter) / 8
			}
		}
	}
	p.health.ObserveAck(sim.Time(now), newDelivered, newLost)
	p.health.Maintain(sim.Time(now))
	// Ack events are never flow-sampled: they are the merge layer's
	// clock-offset signal. Lock order sender.mu → recorder.mu is safe (the
	// recorder never takes transport locks).
	if tr := s.cfg.Trace; tr != nil {
		tr.Emit(obs.WireEvent{Nanos: now, Kind: obs.WireAckRx,
			Path: int32(p.id), Seq: recv, PathSeq: high, A: rttSample, B: int64(newLost)})
	}
}

// PathStats is one path's cumulative sender-side accounting.
type PathStats struct {
	Path        int           `json:"path"`
	Remote      string        `json:"remote"`
	Sent        uint64        `json:"sent"`
	Acked       uint64        `json:"acked"`
	Lost        uint64        `json:"lost"`
	Refused     uint64        `json:"refused"`
	InFlight    int           `json:"in_flight"`
	RTT         time.Duration `json:"rtt_ns"`
	RTTJitter   time.Duration `json:"rtt_jitter_ns"`
	Health      string        `json:"health"`
	Quarantines int           `json:"quarantines"`
}

// SenderStats aggregates the sender's counters.
type SenderStats struct {
	Packets  uint64 `json:"packets"`   // application packets accepted
	Frames   uint64 `json:"frames"`    // wire frames scheduled (hedge copies included)
	Canaries uint64 `json:"canaries"`  // probe-trickle packets
	DupBytes uint64 `json:"dup_bytes"` // payload bytes of extra wire copies
	// Deadline is non-nil when SchedDeadline is active.
	Deadline *WireDeadlineStats `json:"deadline,omitempty"`
	Paths    []PathStats        `json:"paths"`
}

// Stats snapshots the sender's accounting.
func (s *Sender) Stats() SenderStats {
	// Resolve the path addresses before taking s.mu: RemoteAddr goes
	// through the net package (kernel-bound) and must not extend the send
	// path's lock hold time. s.paths is fixed after dialing.
	remotes := make([]string, len(s.paths))
	for i, p := range s.paths {
		remotes[i] = p.conn.RemoteAddr().String()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SenderStats{Packets: s.packets, Frames: s.frames, Canaries: s.canaries, DupBytes: s.dupBytes}
	if s.sched.name == SchedDeadline {
		d := s.sched.dstats
		if b := s.sched.budget; b != nil {
			d.BudgetSpent = b.spent
			d.BudgetDenied = b.denied
		}
		st.Deadline = &d
	}
	for i, p := range s.paths {
		st.Paths = append(st.Paths, PathStats{
			Path:        int(p.id),
			Remote:      remotes[i],
			Sent:        p.sent,
			Acked:       p.acked,
			Lost:        p.lost,
			Refused:     p.refused,
			InFlight:    p.health.InFlight(),
			RTT:         time.Duration(p.rttNanos),
			RTTJitter:   time.Duration(p.rttJitter),
			Health:      p.health.State().String(),
			Quarantines: p.health.Quarantines(),
		})
	}
	return st
}

// PathHealthSnap is one path's health reading at an instant — the tail
// sentinel's path signal and the incident bundle's timeline entry.
type PathHealthSnap struct {
	Path        int    `json:"path"`
	State       string `json:"state"`
	Quarantines int    `json:"quarantines"`
}

// HealthSnapshot reads every path's health state. Cheap enough to call
// once per sentinel tick: one lock hold, no socket touches.
func (s *Sender) HealthSnapshot() []PathHealthSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PathHealthSnap, len(s.paths))
	for i, p := range s.paths {
		out[i] = PathHealthSnap{
			Path:        int(p.id),
			State:       p.health.State().String(),
			Quarantines: p.health.Quarantines(),
		}
	}
	return out
}

// SetTraceSampling retunes the attached wire recorder's sampling rate
// (no-op returning 0 when untraced) — the sender half of the sentinel's
// capture ramp.
func (s *Sender) SetTraceSampling(every int) int {
	if s.cfg.Trace == nil {
		return 0
	}
	return s.cfg.Trace.SetSampleEvery(every)
}

// RegisterMetrics exposes the sender's duplication and deadline counters
// on a live registry: mpdp_dup_bytes_total always, the mpdp_deadline_* /
// mpdp_dup_budget_* family when SchedDeadline is active. Snapshot
// closures take the sender lock, matching every other reader.
func (s *Sender) RegisterMetrics(reg *live.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("mpdp_dup_bytes_total", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.dupBytes
	})
	if s.sched.name != SchedDeadline {
		return
	}
	dstat := func(f func(WireDeadlineStats) uint64) func() uint64 {
		return func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			d := s.sched.dstats
			if b := s.sched.budget; b != nil {
				d.BudgetSpent = b.spent
				d.BudgetDenied = b.denied
			}
			return f(d)
		}
	}
	reg.CounterFunc("mpdp_deadline_safe_total", dstat(func(d WireDeadlineStats) uint64 { return d.Safe }))
	reg.CounterFunc("mpdp_deadline_at_risk_total", dstat(func(d WireDeadlineStats) uint64 { return d.AtRisk }))
	reg.CounterFunc("mpdp_deadline_dups_total", dstat(func(d WireDeadlineStats) uint64 { return d.Duplicated }))
	reg.CounterFunc("mpdp_deadline_denied_total", dstat(func(d WireDeadlineStats) uint64 { return d.Denied }))
	reg.CounterFunc("mpdp_dup_budget_spent_bytes_total", dstat(func(d WireDeadlineStats) uint64 { return d.BudgetSpent }))
	reg.CounterFunc("mpdp_dup_budget_denied_total", dstat(func(d WireDeadlineStats) uint64 { return d.BudgetDenied }))
}

// Close shuts every path socket and waits for the ack readers (and any
// impairer-delayed writes) to finish.
func (s *Sender) Close() error {
	close(s.closed)
	s.delayers.Wait()
	s.closeConns()
	s.wg.Wait()
	return nil
}
