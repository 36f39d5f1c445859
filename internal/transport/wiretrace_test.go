package transport

import (
	"encoding/json"
	"testing"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/obs"
)

// The PR's acceptance criterion: in the loopback harness, the merged
// sender+receiver attribution must sum EXACTLY to the measured end-to-end
// latency for every sampled packet — every nanosecond between accept and
// in-order delivery assigned to precisely one stage.
func TestLoopbackWireAttributionExact(t *testing.T) {
	if testing.Short() {
		t.Skip("wire loopback in -short mode")
	}
	st := obs.NewWireRecorder(obs.WireSender, 1<<16, 1)
	rt := obs.NewWireRecorder(obs.WireReceiver, 1<<16, 1)
	rep, err := RunLoopback(LoopbackConfig{
		Paths:         2,
		Scheduler:     SchedHedge,
		Packets:       3000,
		Payload:       128,
		SenderTrace:   st,
		ReceiverTrace: rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	m := obs.MergeWire(append(st.Events(), rt.Events()...))
	if m.Delivered == 0 {
		t.Fatal("merge saw no delivered packets")
	}
	if uint64(m.Delivered) != rep.Delivered {
		t.Fatalf("merge delivered %d, loopback delivered %d — sampling at rate 1 must cover every packet",
			m.Delivered, rep.Delivered)
	}
	if m.RTTSamples == 0 {
		t.Fatal("no RTT samples: ack events missing from the sender trace")
	}
	// Loopback shares one clock, so the estimated offset must be tiny
	// compared to real cross-host skew — generously, under a second.
	if off := m.OffsetNanos; off < -1e9 || off > 1e9 {
		t.Fatalf("loopback clock offset estimate %d ns is implausible", off)
	}
	complete := 0
	for _, tl := range m.Timelines {
		if tl.DeliverNanos == 0 {
			continue
		}
		if !tl.Complete {
			continue
		}
		complete++
		if got, want := tl.Attr.Total(), tl.E2E; got != want {
			t.Fatalf("flow %d seq %d: attribution sum %d != e2e %d (attr %+v)",
				tl.FlowID, tl.Seq, got, want, tl.Attr)
		}
		if tl.Attr.SenderQueue < 0 || tl.Attr.Propagation < 0 ||
			tl.Attr.ReorderWait < 0 || tl.Attr.Deliver < 0 {
			t.Fatalf("flow %d seq %d: negative stage in %+v", tl.FlowID, tl.Seq, tl.Attr)
		}
	}
	if complete != m.Delivered {
		t.Fatalf("%d of %d delivered timelines complete — ring truncated a clean full-sample run",
			complete, m.Delivered)
	}
}

// Both endpoints share one clock, so the merge's offset estimate must be
// near zero. Transmit stamps are read before the socket write and receive
// stamps after the read, so no data or ack gap can be negative, and the
// two-way estimate is within half the larger of the two minimum one-way
// gaps. The run is the burst scenario the tail sentinel convicts: a 3 ms
// delay on path 0 inflates the sender queue and the RTT echoes, which
// biased the old RTT-echo estimate by 0.3-0.8 ms here.
func TestLoopbackClockOffsetSameClock(t *testing.T) {
	if testing.Short() {
		t.Skip("wire loopback in -short mode")
	}
	st := obs.NewWireRecorder(obs.WireSender, 1<<16, 1)
	rt := obs.NewWireRecorder(obs.WireReceiver, 1<<16, 1)
	rep, err := RunLoopback(LoopbackConfig{
		Packets:   1000,
		Rate:      5000,
		Paths:     2,
		Payload:   64,
		Scheduler: SchedRoundRobin,
		Impairer: NewBurstImpairer(BurstImpairConfig{
			Path: 0, Period: 400, Length: 100, Delay: 3 * time.Millisecond,
		}),
		SenderTrace:   st,
		ReceiverTrace: rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	evs := append(st.Events(), rt.Events()...)
	// Pair acks as the merge does: the sweep re-sends an unchanged ack
	// while a path has a hole, and a key sent twice names no single send.
	ackTx := make(map[[3]uint64]int64)
	resent := make(map[[3]uint64]bool)
	for _, ev := range evs {
		if ev.Kind == obs.WireAckTx {
			k := [3]uint64{uint64(ev.Path), uint64(ev.A), uint64(ev.B)}
			if _, seen := ackTx[k]; seen {
				resent[k] = true
			}
			ackTx[k] = ev.Nanos
		}
	}
	for _, ev := range evs {
		if ev.Kind != obs.WireAckRx {
			continue
		}
		k := [3]uint64{uint64(ev.Path), ev.Seq, ev.PathSeq}
		if tx, ok := ackTx[k]; ok && !resent[k] && ev.Nanos < tx {
			t.Fatalf("ack on path %d arrived %d ns before it was sent", ev.Path, tx-ev.Nanos)
		}
	}
	m := obs.MergeWire(evs)
	if m.AckPairs == 0 {
		t.Fatal("no ack pairs: the merge fell back to the RTT-echo estimate")
	}
	for _, tl := range m.Timelines {
		for _, c := range tl.Copies {
			if c.TxNanos != 0 && c.RxNanos != 0 && c.RxNanos < c.TxNanos {
				t.Fatalf("flow %d seq %d path %d: rx %d ns before tx", tl.FlowID, tl.Seq, c.Path, c.TxNanos-c.RxNanos)
			}
		}
	}
	const bound = 250 * time.Microsecond
	if off := time.Duration(m.OffsetNanos); off < -bound || off > bound {
		t.Fatalf("same-clock offset estimate %v, want within ±%v (%d ack pairs, min rtt %v)",
			off, bound, m.AckPairs, time.Duration(m.MinRTT))
	}
}

// With tracing off, the transport must behave byte-identically to its
// pre-trace self: no new span stages, no new stats fields, zero events.
func TestUntracedRunChangesNothing(t *testing.T) {
	spans := NewSpans(nil)
	stages := spans.StageSnapshot()
	want := []string{"encode", "socket_write", "socket_read", "reorder", "deliver", "e2e"}
	if len(stages) != len(want) {
		t.Fatalf("untraced spans expose %d stages, want %d", len(stages), len(want))
	}
	for i, st := range stages {
		if st.Stage != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, st.Stage, want[i])
		}
	}
	spans.EnableWireStages(nil)
	got := spans.StageSnapshot()
	wantWire := []string{"encode", "socket_write", "sender_queue", "socket_read",
		"flight", "reorder", "deliver", "e2e"}
	if len(got) != len(wantWire) {
		t.Fatalf("wire spans expose %d stages, want %d", len(got), len(wantWire))
	}
	for i, st := range got {
		if st.Stage != wantWire[i] {
			t.Fatalf("wire stage %d = %q, want %q", i, st.Stage, wantWire[i])
		}
	}

	rep, err := RunLoopback(LoopbackConfig{Packets: 200, Payload: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The stats JSON shape is the gateway's output contract: adding a
	// field here would change untraced gateway output.
	raw, err := json.Marshal(rep.Sender)
	if err != nil {
		t.Fatal(err)
	}
	var senderKeys map[string]any
	if err := json.Unmarshal(raw, &senderKeys); err != nil {
		t.Fatal(err)
	}
	for k := range senderKeys {
		switch k {
		case "packets", "frames", "canaries", "dup_bytes", "deadline", "paths":
		default:
			t.Errorf("SenderStats grew unexpected JSON field %q", k)
		}
	}
	raw, err = json.Marshal(rep.Receiver)
	if err != nil {
		t.Fatal(err)
	}
	var recvKeys map[string]any
	if err := json.Unmarshal(raw, &recvKeys); err != nil {
		t.Fatal(err)
	}
	for k := range recvKeys {
		switch k {
		case "delivered", "lost", "dup_drops", "reorder", "paths":
		default:
			t.Errorf("ReceiverStats grew unexpected JSON field %q", k)
		}
	}
}

// The sentinel-disabled identity pin: LoopbackReport's top-level JSON
// shape is the whole of the gateway's untraced output. The sentinel adds
// zero fields and zero behavior when off (OnStart nil), so any new key
// here means disabled-sentinel output changed.
func TestSentinelDisabledReportShapeUnchanged(t *testing.T) {
	rep, err := RunLoopback(LoopbackConfig{Packets: 100, Payload: 64})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		switch k {
		case "elapsed_ns", "packets", "frames", "delivered", "lost",
			"dup_drops", "wire_dups", "deadline_hits", "deadline_misses",
			"sender", "receiver", "violations", "n_violations", "spans":
		default:
			t.Errorf("LoopbackReport grew unexpected JSON field %q — disabled-sentinel gateway output changed", k)
		}
	}
}

// The sentinel's attachment points: OnStart fires once with the live
// endpoints, HealthSnapshot reads per-path health without touching
// sockets, and SetTraceSampling ramps both recorders.
func TestLoopbackOnStartAndRampHooks(t *testing.T) {
	st := obs.NewWireRecorder(obs.WireSender, 1<<12, 64)
	rt := obs.NewWireRecorder(obs.WireReceiver, 1<<12, 64)
	started := 0
	var health []PathHealthSnap
	rep, err := RunLoopback(LoopbackConfig{
		Packets:       200,
		Payload:       64,
		Paths:         2,
		SenderTrace:   st,
		ReceiverTrace: rt,
		OnStart: func(send *Sender, recv *Receiver) {
			started++
			health = send.HealthSnapshot()
			if prev := send.SetTraceSampling(1); prev != 64 {
				t.Errorf("sender ramp returned prev %d, want 64", prev)
			}
			if prev := recv.SetTraceSampling(1); prev != 64 {
				t.Errorf("receiver ramp returned prev %d, want 64", prev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if started != 1 {
		t.Fatalf("OnStart fired %d times, want 1", started)
	}
	if len(health) != 2 {
		t.Fatalf("HealthSnapshot returned %d paths, want 2", len(health))
	}
	for _, h := range health {
		if h.State == "" {
			t.Errorf("path %d health state empty", h.Path)
		}
	}
	if st.SampleEvery() != 1 || rt.SampleEvery() != 1 {
		t.Fatalf("ramp did not stick: sender %d receiver %d", st.SampleEvery(), rt.SampleEvery())
	}
	// Ramped to every-packet before the first send: both ends captured
	// every delivery, so the merge joins end to end.
	if rep.Delivered == 0 {
		t.Fatal("no deliveries")
	}
	merge := obs.MergeWire(append(st.Events(), rt.Events()...))
	if merge.Delivered == 0 {
		t.Fatal("ramped run merged zero delivered timelines")
	}
}

// Untraced endpoints make the ramp a no-op, not a panic.
func TestSetTraceSamplingUntraced(t *testing.T) {
	s := &Sender{cfg: SenderConfig{}}
	if got := s.SetTraceSampling(1); got != 0 {
		t.Fatalf("untraced sender ramp = %d, want 0", got)
	}
	r := &Receiver{cfg: ReceiverConfig{}}
	if got := r.SetTraceSampling(1); got != 0 {
		t.Fatalf("untraced receiver ramp = %d, want 0", got)
	}
}

// ackPath fabricates a path for handleAck unit tests (no sockets).
func ackPath() (*Sender, *senderPath) {
	s := &Sender{cfg: SenderConfig{}}
	p := &senderPath{health: core.NewHealthTracker(core.HealthConfig{})}
	return s, p
}

// Satellite: RTT-echo correctness under duplicated and reordered acks.
// The cumulative guard admits EQUAL (high, recv) — a duplicated ack, or a
// sweep ack repeating the newest echo — so RTT freshness must key on the
// echo itself, or replays re-sample a stale send timestamp against a
// later clock and inflate the EWMA.
func TestHandleAckDuplicateNeverInflatesRTT(t *testing.T) {
	s, p := ackPath()
	echo := nowNanos() - time.Millisecond.Nanoseconds()
	ack := Header{Flags: FlagAck, Seq: 10, PathSeq: 10, SendNanos: echo}
	s.handleAck(p, ack)
	if p.rttNanos <= 0 {
		t.Fatalf("fresh ack produced no RTT sample (rtt=%d)", p.rttNanos)
	}
	first := p.rttNanos

	// Replay the identical ack after time has passed: the cumulative guard
	// admits it (equal watermarks), the echo guard must reject the sample.
	time.Sleep(3 * time.Millisecond)
	s.handleAck(p, ack)
	if p.rttNanos != first {
		t.Fatalf("duplicated ack moved the RTT EWMA: %d -> %d", first, p.rttNanos)
	}

	// A sweep ack advancing recv while repeating the same newest echo must
	// also not re-sample.
	s.handleAck(p, Header{Flags: FlagAck, Seq: 12, PathSeq: 12, SendNanos: echo})
	if p.rttNanos != first {
		t.Fatalf("sweep ack with a stale echo moved the RTT EWMA: %d -> %d", first, p.rttNanos)
	}
}

func TestHandleAckReorderedAndSkewed(t *testing.T) {
	s, p := ackPath()
	now := nowNanos()
	s.handleAck(p, Header{Flags: FlagAck, Seq: 10, PathSeq: 10,
		SendNanos: now - 2*time.Millisecond.Nanoseconds()})
	first := p.rttNanos

	// A strictly older ack (reordered in the network) is rejected outright
	// by the cumulative guard.
	s.handleAck(p, Header{Flags: FlagAck, Seq: 5, PathSeq: 5,
		SendNanos: now - 10*time.Millisecond.Nanoseconds()})
	if p.ackRecv != 10 || p.rttNanos != first {
		t.Fatalf("reordered ack regressed state: recv=%d rtt=%d", p.ackRecv, p.rttNanos)
	}

	// Within-path frame reordering can regress the receiver's lastSend, so
	// a NEWER ack can carry an OLDER echo: it must advance the watermarks
	// without folding the stale echo into the EWMA (the sample would be an
	// inflated phantom RTT).
	s.handleAck(p, Header{Flags: FlagAck, Seq: 11, PathSeq: 11,
		SendNanos: now - 50*time.Millisecond.Nanoseconds()})
	if p.ackRecv != 11 {
		t.Fatal("newer ack with an older echo must still advance accounting")
	}
	if p.rttNanos != first {
		t.Fatalf("stale echo on a newer ack moved the RTT EWMA: %d -> %d", first, p.rttNanos)
	}

	// A clock-skewed echo from the future must never produce a negative or
	// zero sample.
	s.handleAck(p, Header{Flags: FlagAck, Seq: 12, PathSeq: 12,
		SendNanos: nowNanos() + time.Second.Nanoseconds()})
	if p.rttNanos != first {
		t.Fatalf("future echo moved the RTT EWMA: %d -> %d", first, p.rttNanos)
	}
	if p.rttNanos < 0 {
		t.Fatalf("negative RTT EWMA: %d", p.rttNanos)
	}
}

// Every ack folded in emits a WireAckRx event carrying the RTT sample (or
// 0 for a stale echo) — the merge layer's clock-offset signal.
func TestHandleAckEmitsWireEvent(t *testing.T) {
	tr := obs.NewWireRecorder(obs.WireSender, 16, 1)
	s, p := ackPath()
	s.cfg.Trace = tr
	echo := nowNanos() - time.Millisecond.Nanoseconds()
	s.handleAck(p, Header{Flags: FlagAck, Seq: 10, PathSeq: 10, SendNanos: echo})
	s.handleAck(p, Header{Flags: FlagAck, Seq: 10, PathSeq: 10, SendNanos: echo}) // duplicate
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (acks are never flow-sampled)", len(evs))
	}
	if evs[0].Kind != obs.WireAckRx || evs[0].A <= 0 {
		t.Fatalf("first ack event %+v: want WireAckRx with a positive RTT sample", evs[0])
	}
	if evs[0].Seq != 10 || evs[0].PathSeq != 10 {
		t.Fatalf("ack event %+v does not carry the ack's counts (the WireAckTx join key)", evs[0])
	}
	if evs[1].A != 0 {
		t.Fatalf("duplicated ack event carried RTT sample %d, want 0", evs[1].A)
	}
}

// Scheduler verdict bits surface the deadline/dup decision per packet.
func TestSchedulerVerdictBits(t *testing.T) {
	paths := deadlineTestPaths(1_000_000, 2_000_000) // 1 ms and 2 ms RTT
	sch := &scheduler{name: SchedDeadline, deadlineNanos: 10_000_000, margin: 1}
	sch.pick(paths, 0, 100)
	if sch.verdict != 0 {
		t.Fatalf("safe pick verdict = %b, want 0", sch.verdict)
	}

	// Deadline below the best estimate: at-risk, and with no budget the
	// duplicate is denied.
	sch = &scheduler{name: SchedDeadline, deadlineNanos: 100, margin: 1}
	sch.pick(paths, 0, 100)
	if sch.verdict != obs.WireSchedAtRisk|obs.WireSchedDenied {
		t.Fatalf("verdict = %b, want at-risk|denied", sch.verdict)
	}

	// With a funded budget the duplicate is granted.
	sch = &scheduler{name: SchedDeadline, deadlineNanos: 100, margin: 1,
		budget: newWireDupBudget(1e6, 1e6)}
	picks, _ := sch.pick(paths, 0, 100)
	if sch.verdict != obs.WireSchedAtRisk|obs.WireSchedDup {
		t.Fatalf("verdict = %b, want at-risk|dup", sch.verdict)
	}
	if len(picks) != 2 {
		t.Fatalf("granted duplicate but %d picks", len(picks))
	}
}

// A traced loopback run under wire faults still satisfies the identity
// for every complete timeline, and losses surface as lost timelines.
func TestLoopbackWireTraceWithImpairment(t *testing.T) {
	if testing.Short() {
		t.Skip("wire loopback in -short mode")
	}
	st := obs.NewWireRecorder(obs.WireSender, 1<<16, 1)
	rt := obs.NewWireRecorder(obs.WireReceiver, 1<<16, 1)
	rep, err := RunLoopback(LoopbackConfig{
		Paths:          2,
		Scheduler:      SchedRoundRobin,
		Packets:        1500,
		Payload:        128,
		ReorderTimeout: 2 * time.Millisecond,
		Impairer:       NewRandomImpairer(ImpairConfig{Path: 0, DropFrac: 0.2, Seed: 42}),
		SenderTrace:    st,
		ReceiverTrace:  rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	m := obs.MergeWire(append(st.Events(), rt.Events()...))
	for _, tl := range m.Timelines {
		if tl.DeliverNanos == 0 || !tl.Complete {
			continue
		}
		if tl.Attr.Total() != tl.E2E {
			t.Fatalf("flow %d seq %d: sum %d != e2e %d under impairment",
				tl.FlowID, tl.Seq, tl.Attr.Total(), tl.E2E)
		}
	}
	if rep.Lost > 0 && m.Lost == 0 {
		t.Fatalf("loopback lost %d packets but the merge saw no lost timelines", rep.Lost)
	}
}
