package core

import (
	"fmt"

	"mpdp/internal/nf"
	"mpdp/internal/obs"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/vnet"
	"mpdp/internal/xrand"
)

// Config assembles a data plane.
type Config struct {
	// NumPaths is the number of parallel lanes (queue × core × chain
	// replica). 1 reproduces the conventional single-path data plane.
	NumPaths int
	// ChainFactory builds lane i's chain replica. Each lane needs its own
	// instance because chains hold per-replica state (NAT tables, buckets).
	ChainFactory func(i int) *nf.Chain
	// Policy is the multipath scheduling policy. Required.
	Policy Policy

	// QueueCap, DispatchOverhead, JitterSigma configure each lane
	// (zero values take vnet defaults).
	QueueCap         int
	DispatchOverhead sim.Duration
	JitterSigma      float64

	// Interference, when SlowFactor > 1, attaches an independent
	// noisy-neighbor process to each of the first InterferedPaths lanes
	// (InterferedPaths <= 0 means all lanes).
	Interference    vnet.InterferenceConfig
	InterferedPaths int

	// SlowdownFor, when non-nil, overrides Interference entirely: it
	// supplies lane i's slowdown directly (return nil for a clean lane).
	// Used for scripted, deterministic episodes.
	SlowdownFor func(i int) vnet.Slowdown

	// QdiscFor, when non-nil, supplies lane i's queueing discipline
	// (return nil for the default FIFO). Each lane needs its own instance.
	QdiscFor func(i int) vnet.Qdisc

	// ReorderTimeout bounds how long the in-order stage waits for a gap
	// (default 1 ms). DisableReorder bypasses the stage entirely,
	// delivering packets as service completes (an ablation mode —
	// duplicates are still deduplicated).
	ReorderTimeout sim.Duration
	DisableReorder bool

	// EWMAAlpha is the telemetry smoothing factor (default 0.2).
	EWMAAlpha float64

	// Deadline, when > 0, stamps every ingress packet that does not already
	// carry one with an absolute deadline of now+Deadline. Deadline-aware
	// policies schedule against it; delivery accounting scores hit/miss for
	// every policy, so deadline-hit-rate is comparable across the whole menu.
	Deadline sim.Duration

	// TelemetryWindow is the rotation period of each path's windowed p99
	// estimate (default 5 ms): long enough to converge, short enough that
	// a past interference episode ages out within two windows. Rotation
	// is lazy (driven by that path's completions), so an idle path keeps
	// its last estimate. Negative disables windowing (cumulative p99).
	TelemetryWindow sim.Duration

	// Seed drives all of the data plane's randomness.
	Seed uint64

	// TimelineWindow, if > 0, records per-window latency histograms for
	// the adaptivity-timeline experiment.
	TimelineWindow sim.Duration

	// StageTiming, when set, records every chain element's virtual service
	// cost into per-stage histograms (Metrics.StageService) — the
	// simulated analogue of the live engine's per-NF span timing. Off by
	// default: the hook adds one closure call per element per packet.
	StageTiming bool

	// Health tunes the path-health state machine (zero values take
	// defaults; Health.Disable turns it off).
	Health HealthConfig

	// Trace, when non-nil, receives the engine's flight-recorder event
	// stream (see internal/obs): per-packet lifecycle events plus path
	// health transitions. Sinks observe only — attaching one changes no
	// run outcome — and every event field is virtual-time-derived, so the
	// stream is byte-identical across runs of the same seed.
	Trace obs.Sink
}

// Observer receives the engine's per-packet lifecycle events: exactly one
// of Delivered/Lost/Consumed fires per distinct ingress packet once its
// fate is decided (duplicate copies are folded into their original). The
// invariant checker attaches here; observers must not mutate packets.
type Observer interface {
	PacketIngress(p *packet.Packet)
	PacketDelivered(p *packet.Packet)
	PacketLost(p *packet.Packet, reason packet.DropReason)
	PacketConsumed(p *packet.Packet)
}

// DataPlane is the running multipath data plane: the object under test in
// every experiment.
type DataPlane struct {
	sim     *sim.Simulator
	cfg     Config
	paths   []*PathState
	policy  Policy
	reorder *Reorder
	sink    DeliverFunc

	idGen  uint64
	seqGen map[uint64]uint64 // FlowID -> next ingress sequence
	dups   map[uint64]*dupGroup

	observer Observer
	trace    obs.Sink

	// Health machinery (see health.go). Progression is packet-clocked: the
	// sweep runs every MaintainEvery ingress packets, so a healthy run
	// schedules no extra events and an idle plane does no work.
	healthCfg     HealthConfig
	maintainCount uint64
	canaryCount   uint64
	numProbing    int
	fracBuf       []float64

	metrics *Metrics
}

// dupGroup tracks the outstanding copies of one duplicated packet. copies
// views inline unless the fan-out exceeds it, so the common path counts
// cost one allocation for the whole group.
type dupGroup struct {
	remaining int
	won       bool
	copies    []*packet.Packet
	inline    [4]*packet.Packet
}

// New builds a data plane on simulator s delivering in-order packets to
// sink (which may be nil; metrics are recorded regardless).
func New(s *sim.Simulator, cfg Config, sink DeliverFunc) *DataPlane {
	if s == nil {
		panic("core: New with nil simulator")
	}
	if cfg.NumPaths <= 0 {
		panic("core: Config.NumPaths must be positive")
	}
	if cfg.ChainFactory == nil {
		panic("core: Config.ChainFactory is required")
	}
	if cfg.Policy == nil {
		panic("core: Config.Policy is required")
	}
	if cfg.ReorderTimeout == 0 {
		cfg.ReorderTimeout = 1 * sim.Millisecond
	}
	if cfg.EWMAAlpha == 0 {
		cfg.EWMAAlpha = 0.2
	}
	if cfg.TelemetryWindow == 0 {
		cfg.TelemetryWindow = 5 * sim.Millisecond
	}

	health := cfg.Health
	health.fillDefaults()

	dp := &DataPlane{
		sim:       s,
		cfg:       cfg,
		policy:    cfg.Policy,
		sink:      sink,
		trace:     cfg.Trace,
		seqGen:    make(map[uint64]uint64),
		dups:      make(map[uint64]*dupGroup),
		healthCfg: health,
		metrics:   newMetrics(cfg.TimelineWindow),
	}
	dp.reorder = NewReorder(s, cfg.ReorderTimeout, 1, dp.deliver)
	dp.reorder.trace = cfg.Trace
	dp.reorder.OnLost(func(p *packet.Packet) {
		// A straggler the buffer gave up on: conclusively lost.
		dp.metrics.drops[packet.DropReorder]++
		dp.emit(obs.KindDrop, p, int32(p.PathID), int64(packet.DropReorder), 1)
		if dp.observer != nil {
			dp.observer.PacketLost(p, packet.DropReorder)
		}
	})

	rng := xrand.New(cfg.Seed)
	for i := 0; i < cfg.NumPaths; i++ {
		laneCfg := vnet.LaneConfig{
			QueueCap:         cfg.QueueCap,
			Chain:            cfg.ChainFactory(i),
			DispatchOverhead: cfg.DispatchOverhead,
			JitterSigma:      cfg.JitterSigma,
			StageHook:        dp.metrics.stageHook(cfg.StageTiming),
		}
		if laneCfg.QueueCap == 0 {
			laneCfg.QueueCap = 512
		}
		if cfg.QdiscFor != nil {
			laneCfg.Qdisc = cfg.QdiscFor(i)
		}
		if laneCfg.DispatchOverhead == 0 {
			laneCfg.DispatchOverhead = 150 * sim.Nanosecond
		}
		switch {
		case cfg.SlowdownFor != nil:
			if sd := cfg.SlowdownFor(i); sd != nil {
				laneCfg.Interference = sd
			}
		default:
			interfered := cfg.InterferedPaths <= 0 || i < cfg.InterferedPaths
			if cfg.Interference.SlowFactor > 1 && interfered {
				// NewInterference returns a typed nil for no-op configs;
				// guard so the interface stays truly nil.
				if intf := vnet.NewInterference(s, rng.Split(), cfg.Interference); intf != nil {
					laneCfg.Interference = intf
				}
			}
		}
		lane := vnet.NewLane(i, s, laneCfg, rng.Split(), dp.onLaneDone)
		dp.paths = append(dp.paths, newPathState(lane, cfg.EWMAAlpha, cfg.TelemetryWindow))
	}
	return dp
}

// Sim returns the simulator the data plane runs on.
func (dp *DataPlane) Sim() *sim.Simulator { return dp.sim }

// Paths returns the path states (shared; read-only for callers).
func (dp *DataPlane) Paths() []*PathState { return dp.paths }

// Metrics returns the accumulated measurements.
func (dp *DataPlane) Metrics() *Metrics { return dp.metrics }

// ReorderStats returns the in-order stage's counters.
func (dp *DataPlane) ReorderStats() ReorderStats { return dp.reorder.Stats() }

// PolicyName returns the active policy's name.
func (dp *DataPlane) PolicyName() string { return dp.policy.Name() }

// LaneSample reads lane i's instantaneous gauges for the obs sampler.
// Strictly read-only: sampling never perturbs the run.
func (dp *DataPlane) LaneSample(i int) obs.LaneSample {
	ps := dp.paths[i]
	return obs.LaneSample{
		Depth:    ps.Depth(),
		InFlight: ps.health.inflight,
		Health:   int(ps.health.state),
		Served:   ps.completed,
	}
}

// SetObserver attaches a lifecycle observer (nil detaches). Attach before
// the first Ingress; events for packets already in flight are not replayed.
func (dp *DataPlane) SetObserver(o Observer) { dp.observer = o }

// SetTrace attaches a flight-recorder sink (nil detaches). Attach before
// the first Ingress; events are not replayed.
func (dp *DataPlane) SetTrace(t obs.Sink) {
	dp.trace = t
	dp.reorder.trace = t
}

// emit is the flight-recorder hook: one nil check when recording is off.
// Packet identity and the virtual clock supply every field, so the stream
// is a pure function of the seed.
func (dp *DataPlane) emit(kind obs.Kind, p *packet.Packet, path int32, a, b int64) {
	if dp.trace == nil {
		return
	}
	dp.trace.Emit(obs.Event{
		Time: dp.sim.Now(), Kind: kind,
		PktID: p.ID, OrigID: p.OrigID, FlowID: p.FlowID, Seq: p.Seq,
		Path: path, A: a, B: b,
	})
}

// setHealth moves path i to state s, emitting the transition.
func (dp *DataPlane) setHealth(i int, h *pathHealth, s HealthState, now sim.Time) {
	old := h.state
	h.setState(s, now)
	if dp.trace != nil {
		dp.trace.Emit(obs.Event{
			Time: now, Kind: obs.KindHealth, Path: int32(i),
			A: int64(old), B: int64(s),
		})
	}
}

// Ingress admits one packet to the data plane at the current virtual time.
// The engine assigns identity (ID, FlowID, Seq) and consults the policy.
func (dp *DataPlane) Ingress(p *packet.Packet) {
	now := dp.sim.Now()
	p.Ingress = now
	if p.ID == 0 {
		dp.idGen++
		p.ID = dp.idGen
	}
	p.OrigID = p.ID
	if p.FlowID == 0 {
		p.FlowID = p.Flow.Hash64()
	}
	p.Seq = dp.seqGen[p.FlowID]
	dp.seqGen[p.FlowID]++
	p.PathID = -1
	if dp.cfg.Deadline > 0 && p.Deadline == 0 {
		p.Deadline = now + dp.cfg.Deadline
	}

	dp.metrics.offered++
	dp.metrics.offeredBytes += uint64(p.Size())
	dp.emit(obs.KindIngress, p, -1, int64(p.Size()), int64(p.Deadline))
	if dp.observer != nil {
		dp.observer.PacketIngress(p)
	}

	if !dp.healthCfg.Disable {
		dp.maintainCount++
		if dp.maintainCount%uint64(dp.healthCfg.MaintainEvery) == 0 {
			dp.maintainHealth(now)
		}
	}

	idxs := dp.policy.Pick(now, p, dp.paths)
	if len(idxs) == 0 {
		panic(fmt.Sprintf("core: policy %s picked no paths", dp.policy.Name()))
	}
	for _, i := range idxs {
		if i < 0 || i >= len(dp.paths) {
			panic(fmt.Sprintf("core: policy %s picked invalid path %d of %d", dp.policy.Name(), i, len(dp.paths)))
		}
	}

	// Canary trickle: while any path is probing, every CanaryEvery-th
	// single-copy packet is *mirrored* onto it — the probe is a duplicate
	// copy, so a canary the sick path swallows or drops costs nothing (the
	// primary copy still delivers) while a canary it serves is evidence of
	// recovery. Real traffic, zero sacrifice.
	canary := int64(0)
	if dp.numProbing > 0 && len(idxs) == 1 {
		dp.canaryCount++
		if dp.canaryCount%uint64(dp.healthCfg.CanaryEvery) == 0 {
			if pi := dp.nextProbing(); pi >= 0 && pi != idxs[0] {
				idxs = []int{idxs[0], pi}
				dp.metrics.canaries++
				canary = 1
			}
		}
	}
	dp.emit(obs.KindSteer, p, int32(idxs[0]), int64(len(idxs)), canary)

	if len(idxs) == 1 {
		dp.send(p, idxs[0], nil)
		return
	}

	// Duplication: the original plus clones, grouped for first-wins.
	group := &dupGroup{remaining: len(idxs)}
	dp.dups[p.OrigID] = group
	copies := group.inline[:0]
	if len(idxs) > len(group.inline) {
		copies = make([]*packet.Packet, 0, len(idxs))
	}
	copies = append(copies, p)
	p.IsDup = true
	for j := 1; j < len(idxs); j++ {
		dp.idGen++
		copies = append(copies, p.Clone(dp.idGen))
	}
	group.copies = copies
	for j := 1; j < len(copies); j++ {
		// Every extra copy — hedged, selective, or canary mirror — bills its
		// bytes to the shared duplication-cost axis.
		dp.metrics.dupBytes += uint64(copies[j].Size())
		dp.emit(obs.KindDupSent, copies[j], int32(idxs[j]), 0, 0)
	}
	for j, i := range idxs {
		dp.metrics.dupCopies++
		dp.send(copies[j], i, group)
	}
	// The first copy counts as the packet itself, not overhead.
	dp.metrics.dupCopies--
}

// send enqueues one copy on path i, handling refusals (queue tail drop or a
// failed lane turning the copy away).
func (dp *DataPlane) send(p *packet.Packet, i int, group *dupGroup) {
	ps := dp.paths[i]
	ps.sent++
	dp.metrics.copiesSent++
	if ps.Lane.Enqueue(p) {
		dp.emit(obs.KindEnqueue, p, int32(i), 0, 0)
		h := &ps.health
		if h.inflight == 0 {
			h.pendingSince = dp.sim.Now()
		}
		h.inflight++
		return
	}
	// Refused. The engine knows this sequence copy is gone, so punch the
	// hole (or finish the dup group) immediately.
	dp.metrics.drops[p.Dropped]++
	dp.emit(obs.KindDrop, p, int32(i), int64(p.Dropped), 0)
	if p.Dropped == packet.DropPathFailed && !dp.healthCfg.Disable {
		// A fail-stop refusal is near-definitive evidence; quarantine as
		// soon as the threshold allows.
		h := &ps.health
		h.consecFail++
		if h.state == HealthProbing || h.consecFail >= dp.healthCfg.FailThreshold {
			dp.quarantinePath(i)
		}
	}
	dp.copyGone(p, group)
}

// copyGone accounts for a copy that will never reach delivery. When it was
// the packet's last chance, the packet is conclusively lost.
func (dp *DataPlane) copyGone(p *packet.Packet, group *dupGroup) {
	if group == nil {
		dp.lost(p)
		return
	}
	group.remaining--
	if group.remaining <= 0 {
		if !group.won {
			dp.lost(p)
		}
		delete(dp.dups, p.OrigID)
	}
}

// lost finalizes a packet whose every copy is gone: the reorder stage is
// told not to wait for it and the observer sees its fate. The B=1 drop
// event marks the loss as conclusive (copy-level drops carry B=0).
func (dp *DataPlane) lost(p *packet.Packet) {
	dp.punch(p)
	dp.emit(obs.KindDrop, p, int32(p.PathID), int64(p.Dropped), 1)
	if dp.observer != nil {
		dp.observer.PacketLost(p, p.Dropped)
	}
}

// punch tells the in-order stage that p's sequence is lost.
func (dp *DataPlane) punch(p *packet.Packet) {
	if !dp.cfg.DisableReorder {
		dp.reorder.Skip(p.FlowID, p.Seq)
	}
}

// onLaneDone receives every service completion from every lane.
func (dp *DataPlane) onLaneDone(p *packet.Packet, verdict packet.Verdict) {
	ps := dp.paths[p.PathID]
	ps.observe(p.Done, p.ServiceTime(), p.Done-p.Enqueued)
	dp.emit(obs.KindService, p, int32(p.PathID), int64(p.ServiceAt), int64(verdict))
	h := &ps.health
	h.inflight--
	h.lastDone = p.Done

	group := dp.dups[p.OrigID]

	if p.Cancelled {
		// Raced with a cancel after service started; treat as loser.
		dp.metrics.drops[packet.DropCancelled]++
		dp.emit(obs.KindDrop, p, int32(p.PathID), int64(packet.DropCancelled), 0)
		dp.copyGone(p, group)
		return
	}

	if !dp.healthCfg.Disable {
		if verdict == packet.Drop {
			h.winDropped++
			if h.state == HealthProbing {
				// A canary eaten by the chain: the path still misbehaves.
				h.consecFail++
				if h.consecFail >= 2 {
					dp.quarantinePath(p.PathID)
				}
			}
		} else {
			h.winServed++
			h.consecFail = 0
			if h.state == HealthProbing {
				h.probeOK++
				if h.probeOK >= dp.healthCfg.ProbeSuccesses {
					dp.numProbing--
					dp.setHealth(p.PathID, h, HealthUp, dp.sim.Now())
				}
			}
		}
	}

	switch verdict {
	case packet.Pass:
		if group != nil {
			if group.won {
				// A sibling already delivered; this copy loses.
				p.Dropped = packet.DropCancelled
				dp.metrics.drops[packet.DropCancelled]++
				dp.emit(obs.KindDrop, p, int32(p.PathID), int64(packet.DropCancelled), 0)
				group.remaining--
				if group.remaining <= 0 {
					delete(dp.dups, p.OrigID)
				}
				return
			}
			group.won = true
			group.remaining--
			dp.cancelSiblings(p, group)
			if group.remaining <= 0 {
				delete(dp.dups, p.OrigID)
			}
		}
		if dp.cfg.DisableReorder {
			p.Delivered = dp.sim.Now()
			dp.deliver(p)
		} else {
			dp.reorder.Submit(p)
		}
	case packet.Drop:
		dp.metrics.drops[p.Dropped]++
		dp.emit(obs.KindDrop, p, int32(p.PathID), int64(p.Dropped), 0)
		dp.copyGone(p, group)
	case packet.Consume:
		// Terminated locally (e.g. tunnel endpoint); counts as completed
		// work but exits the pipeline here — successors must not wait.
		// First consume wins its dup group so the packet counts once.
		if group != nil {
			if group.won {
				p.Dropped = packet.DropCancelled
				dp.metrics.drops[packet.DropCancelled]++
				dp.emit(obs.KindDrop, p, int32(p.PathID), int64(packet.DropCancelled), 0)
				group.remaining--
				if group.remaining <= 0 {
					delete(dp.dups, p.OrigID)
				}
				return
			}
			group.won = true
			group.remaining--
			dp.cancelSiblings(p, group)
			if group.remaining <= 0 {
				delete(dp.dups, p.OrigID)
			}
		}
		dp.metrics.consumed++
		dp.punch(p)
		dp.emit(obs.KindConsume, p, int32(p.PathID), 0, 0)
		if dp.observer != nil {
			dp.observer.PacketConsumed(p)
		}
	}
}

// cancelSiblings cancels the still-queued twins of a winning copy. A copy
// cancelled while queued is discarded by its lane without a completion
// callback, so its group slot is released here.
func (dp *DataPlane) cancelSiblings(winner *packet.Packet, group *dupGroup) {
	for _, c := range group.copies {
		if c == winner || c.Cancelled {
			continue
		}
		if c.PathID >= 0 && c.PathID < len(dp.paths) {
			// A copy on a probing path is a canary: let it run to completion
			// so the probe gathers its evidence (it costs nothing — the
			// group is already won).
			if dp.paths[c.PathID].health.state == HealthProbing {
				continue
			}
			if dp.paths[c.PathID].Lane.CancelQueued(c.ID) {
				// Discarded in-queue without a completion callback, so its
				// in-flight slot is released here too.
				dp.paths[c.PathID].health.inflight--
				dp.metrics.dupCancelled++
				dp.emit(obs.KindDupCancel, c, int32(c.PathID), 0, 0)
				group.remaining--
			}
		}
	}
}

// deliver is the terminal stage: record metrics and hand to the sink.
func (dp *DataPlane) deliver(p *packet.Packet) {
	dp.metrics.recordDelivery(p)
	dp.emit(obs.KindDeliver, p, int32(p.PathID), 0, 0)
	if dp.observer != nil {
		dp.observer.PacketDelivered(p)
	}
	if dp.sink != nil {
		dp.sink(p)
	}
}

// Flush ends a measurement run: anything still held by a failed lane is
// declared lost (so accounting converges even when a blackhole was never
// detected), then the reorder buffer is force-released.
func (dp *DataPlane) Flush() {
	for _, ps := range dp.paths {
		if ps.Lane.FailState() != vnet.LaneHealthy {
			ps.Lane.DrainFailed(dp.pathDrop)
		}
	}
	if !dp.cfg.DisableReorder {
		dp.reorder.Flush()
	}
}

// FailPath injects a lane failure. LaneFailStop is announced — the lane
// refuses traffic, so the very next send quarantines it and everything it
// held is hole-punched now. LaneBlackhole is silent: the lane keeps
// accepting and swallowing packets; detection is the watchdog's job.
func (dp *DataPlane) FailPath(i int, mode vnet.FailMode) {
	if i < 0 || i >= len(dp.paths) {
		panic(fmt.Sprintf("core: FailPath(%d) of %d paths", i, len(dp.paths)))
	}
	ps := dp.paths[i]
	switch mode {
	case vnet.LaneFailStop:
		ps.Lane.Fail(mode, dp.pathDrop)
		if !dp.healthCfg.Disable {
			dp.quarantinePath(i)
		}
	case vnet.LaneBlackhole:
		ps.Lane.Fail(mode, nil)
	}
}

// RestorePath repairs a previously failed lane. Health is deliberately NOT
// reset: a quarantined path must still earn its way back through the
// probing canaries — the injector saying "fixed" is not proof.
func (dp *DataPlane) RestorePath(i int) {
	if i < 0 || i >= len(dp.paths) {
		panic(fmt.Sprintf("core: RestorePath(%d) of %d paths", i, len(dp.paths)))
	}
	dp.paths[i].Lane.Recover()
}

// pathDrop receives packets drained off a failed or quarantined lane: each
// is a copy that will never complete.
func (dp *DataPlane) pathDrop(p *packet.Packet) {
	dp.metrics.drops[packet.DropPathFailed]++
	dp.emit(obs.KindDrop, p, int32(p.PathID), int64(packet.DropPathFailed), 0)
	if p.PathID >= 0 && p.PathID < len(dp.paths) {
		dp.paths[p.PathID].health.inflight--
	}
	dp.copyGone(p, dp.dups[p.OrigID])
}

// quarantinePath moves path i to Quarantined and synchronously hole-punches
// everything its lane still holds, so no successor waits on a dead path.
func (dp *DataPlane) quarantinePath(i int) {
	ps := dp.paths[i]
	if ps.health.state == HealthQuarantined {
		return
	}
	if ps.health.state == HealthProbing {
		dp.numProbing--
	}
	dp.setHealth(i, &ps.health, HealthQuarantined, dp.sim.Now())
	dp.metrics.quarantines++
	ps.Lane.DrainFailed(dp.pathDrop)
}

// nextProbing returns a probing path for the next canary, rotating so
// concurrent probes share the trickle. -1 when none is probing.
func (dp *DataPlane) nextProbing() int {
	n := len(dp.paths)
	start := int(dp.canaryCount) % n
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if dp.paths[i].health.state == HealthProbing {
			return i
		}
	}
	return -1
}

// maintainHealth is the lazy sweep, run every MaintainEvery ingress packets:
// the blackhole watchdog, quarantine-backoff expiry, and error-rate window
// accounting live here. Packet-clocked on purpose — no self-rescheduling
// timer, so a drained simulator stays drained.
func (dp *DataPlane) maintainHealth(now sim.Time) {
	cfg := &dp.healthCfg

	// Rotate every active path's window first, so the median below compares
	// drop fractions from the same epoch. Collecting before rotating would
	// leave the first completed window with no peers to compare against.
	for _, ps := range dp.paths {
		if st := ps.health.state; st == HealthUp || st == HealthDegraded {
			ps.health.rotateWindow(cfg.DropWindowMin)
		}
	}

	// Median policy-drop fraction across paths with a completed window, so
	// a path is only punished for dropping anomalously more than its peers
	// (a uniform ACL drop rate must not quarantine anyone).
	dp.fracBuf = dp.fracBuf[:0]
	for _, ps := range dp.paths {
		if ps.health.dropFrac >= 0 {
			dp.fracBuf = append(dp.fracBuf, ps.health.dropFrac)
		}
	}
	median := medianOf(dp.fracBuf)

	for i, ps := range dp.paths {
		h := &ps.health
		switch h.state {
		case HealthUp, HealthDegraded:
			// Blackhole watchdog: work outstanding, nothing coming back.
			if h.inflight > 0 && now-h.pendingSince > cfg.SuspectTimeout && (h.lastDone == 0 || now-h.lastDone > cfg.SuspectTimeout) {
				dp.quarantinePath(i)
				continue
			}
			if h.dropFrac < 0 {
				continue
			}
			anomalous := h.dropFrac >= 4*median || median == 0
			switch {
			case h.dropFrac >= cfg.DropQuarantineFrac && anomalous:
				dp.quarantinePath(i)
			case h.dropFrac >= cfg.DropDegradeFrac && anomalous && h.state == HealthUp:
				dp.setHealth(i, h, HealthDegraded, now)
			case h.state == HealthDegraded && h.dropFrac < cfg.DropDegradeFrac/2:
				dp.setHealth(i, h, HealthUp, now)
			}
		case HealthQuarantined:
			if now-h.since >= cfg.QuarantineBackoff {
				dp.setHealth(i, h, HealthProbing, now)
				dp.numProbing++
			}
		case HealthProbing:
			// A canary swallowed silently means the blackhole persists.
			if h.inflight > 0 && now-h.pendingSince > cfg.SuspectTimeout {
				dp.quarantinePath(i)
			}
		}
	}
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Insertion sort: the slice is at most NumPaths long.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[len(xs)/2]
}
