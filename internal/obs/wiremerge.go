package obs

import (
	"sort"

	"mpdp/internal/stats"
)

// Merge layer: join the sender and receiver wire-event streams into
// per-packet timelines with exact cross-endpoint latency attribution.
//
// The two endpoints timestamp with two different clocks. The merge
// estimates their offset (receiver clock minus sender clock) from signals
// the transport already carries — no extra wire bytes:
//
//   - Every data frame's header carries SendNanos (sender clock); the
//     receiver's rx event records both its own arrival clock and that
//     echo, so each matched copy yields gap = rx − tx = offset + one-way.
//   - Every cumulative ack is recorded twice: WireAckTx (receiver clock,
//     read just before the ack's socket write) and WireAckRx (sender
//     clock, when it arrived), both keyed by the ack's (path, received
//     count, high-water seq). Each matched ack yields back = rx − tx =
//     −offset + one-way in the reverse direction.
//
// offset ≈ (min(gap) − min(back)) / 2: the fastest forward and the
// fastest reverse one-way are assumed equal (the usual symmetric-path
// assumption), and the two minima cancel them. Both minima are pure
// socket-to-socket times, so neither the sender's queue nor the
// receiver's ack hold (up to AckEvery frames or one ack sweep) enters
// the estimate.
//
// A trace without matched ack pairs (older traces, or rings that kept
// only one side's acks) falls back to offset ≈ min(gap) − minRTT/2, with
// minRTT the smallest ack-echoed round trip. That RTT runs from the echoed
// frame's accept time to the ack's arrival, so it also holds the sender
// queue and the ack hold, and the fallback under-estimates the offset by
// half of them.
//
// Offset error moves latency between the Propagation stage and nothing
// else — the attribution identity below holds for ANY offset value.
//
// Exact attribution. For a delivered packet let enq be the sender-clock
// accept time, tx the sender-clock transmit time of the copy the receiver
// admitted, rx that copy's receiver-clock arrival, rel the receiver-clock
// in-order release, and done the receiver-clock post-callback time. Then
//
//	SenderQueue = tx − enq                 (sender clock)
//	Propagation = (rx − offset) − tx       (cross-clock, offset-corrected)
//	ReorderWait = rel − rx                 (receiver clock)
//	Deliver     = done − rel               (receiver clock)
//	E2E         = (done − offset) − enq
//
// and the four stages telescope: their sum equals E2E exactly, every
// nanosecond between accept and delivery assigned to precisely one stage
// (asserted per packet by the loopback test in internal/transport).

// WireAttr is one delivered packet's exact stage decomposition, all in
// nanoseconds.
type WireAttr struct {
	SenderQueue int64 `json:"sender_queue_ns"` // accept → admitted copy's tx
	Propagation int64 `json:"propagation_ns"`  // tx → rx, offset-corrected
	ReorderWait int64 `json:"reorder_wait_ns"` // rx → in-order release
	Deliver     int64 `json:"deliver_ns"`      // deliver callback
}

// Total returns the components' sum — by construction the packet's
// offset-corrected end-to-end latency.
func (a WireAttr) Total() int64 {
	return a.SenderQueue + a.Propagation + a.ReorderWait + a.Deliver
}

// WireCopy is one wire copy of a packet: where it was sent and whether —
// and when — it arrived.
type WireCopy struct {
	Path     int32  `json:"path"`
	PathSeq  uint64 `json:"path_seq"`
	TxNanos  int64  `json:"tx_ns,omitempty"` // sender clock; 0 = tx event not captured
	RxNanos  int64  `json:"rx_ns,omitempty"` // receiver clock; 0 = never arrived
	Flags    int64  `json:"flags,omitempty"`
	Admitted bool   `json:"admitted,omitempty"` // this copy won first-copy-wins dedup
	Deduped  bool   `json:"deduped,omitempty"`  // discarded (wire dup or hedged sibling)
}

// WireTimeline is one sampled packet's merged lifecycle across both
// endpoints.
type WireTimeline struct {
	FlowID uint64 `json:"flow_id"`
	Seq    uint64 `json:"seq"`

	EnqNanos     int64 `json:"enq_ns"`            // sender clock (0 = not captured)
	SchedCopies  int64 `json:"sched_copies"`      // scheduler's copy count
	SchedVerdict int64 `json:"sched_verdict"`     // WireSched* bits
	DeliverNanos int64 `json:"deliver_ns"`        // receiver clock, post-callback
	Lost         bool  `json:"lost,omitempty"`    // abandoned by a gap timeout
	Complete     bool  `json:"complete"`          // every attribution boundary captured
	E2E          int64 `json:"e2e_ns,omitempty"`  // offset-corrected end to end
	PayloadLen   int64 `json:"payload,omitempty"` // bytes (from the enqueue event)

	Copies []WireCopy `json:"copies"`
	Attr   WireAttr   `json:"attr"`
}

// WirePathStats aggregates one path's merged view.
type WirePathStats struct {
	Path     int32 `json:"path"`
	Tx       int   `json:"tx"`      // copies transmitted
	Rx       int   `json:"rx"`      // copies that arrived
	Wins     int   `json:"wins"`    // copies that won dedup and delivered
	Deduped  int   `json:"deduped"` // copies discarded as duplicates
	PropSum  int64 `json:"-"`       // offset-corrected propagation sum over matched copies
	PropMax  int64 `json:"prop_max_ns"`
	PropN    int   `json:"-"`
	PropMean int64 `json:"prop_mean_ns"`
}

// WireStage names one attribution stage of the merged report.
type WireStage struct {
	Stage   string        `json:"stage"`
	Latency stats.Summary `json:"latency_ns"`
}

// WireMerge is the joined view of a sender and a receiver stream.
type WireMerge struct {
	// Timelines holds every sampled packet, slowest first (by E2E, then
	// flow/seq for determinism). Lost and incomplete timelines sort last.
	Timelines []WireTimeline

	// OffsetNanos is the estimated receiver-minus-sender clock offset.
	OffsetNanos int64
	// MinRTT is the smallest ack-echoed round trip observed (0 = none).
	MinRTT int64
	// RTTSamples counts acks that carried a fresh RTT echo.
	RTTSamples int
	// AckPairs counts acks matched between a WireAckTx and a WireAckRx
	// event; when > 0 the offset comes from the two-way minimum.
	AckPairs int

	SenderEvents   int
	ReceiverEvents int
	Delivered      int
	Lost           int
	Incomplete     int // delivered but missing a boundary (ring overwrote it)

	// Stages summarizes the four attribution stages plus e2e over every
	// complete delivered timeline.
	Stages []WireStage
	// Paths is the per-path table, path order.
	Paths []WirePathStats
}

// ackKey joins an ack's two events: its path, received count and
// high-water path seq.
type ackKey struct {
	path       int32
	recv, high uint64
}

// timelineKey joins the two streams.
type timelineKey struct {
	flow uint64
	seq  uint64
}

// MergeWire joins wire events from both endpoints (any order; the End
// field routes each event) into per-packet timelines, estimates the clock
// offset, and computes exact attribution for every complete delivered
// packet.
func MergeWire(events []WireEvent) *WireMerge {
	m := &WireMerge{}
	type build struct {
		tl        WireTimeline
		releaseAt int64 // WireDeliver B: pre-callback release time
		rxAdm     int64 // WireDeliver A: admitted copy's arrival time
		admPath   int32
		admSeq    uint64 // admitted copy's per-path wire seq
	}
	packets := make(map[timelineKey]*build)
	order := make([]timelineKey, 0, 64) // deterministic output: first-seen order
	get := func(flow, seq uint64) *build {
		k := timelineKey{flow, seq}
		b, ok := packets[k]
		if !ok {
			b = &build{tl: WireTimeline{FlowID: flow, Seq: seq}}
			b.admPath = -1
			packets[k] = b
			order = append(order, k)
		}
		return b
	}
	copyAt := func(b *build, path int32, pathSeq uint64) *WireCopy {
		for i := range b.tl.Copies {
			c := &b.tl.Copies[i]
			if c.Path == path && c.PathSeq == pathSeq {
				return c
			}
		}
		b.tl.Copies = append(b.tl.Copies, WireCopy{Path: path, PathSeq: pathSeq})
		return &b.tl.Copies[len(b.tl.Copies)-1]
	}

	// Ack join: an ack key seen more than once on one side (a sweep
	// repeating an ack while a loss hole stays open) cannot be paired
	// and is marked with n > 1.
	type ackStamp struct {
		nanos int64
		n     int
	}
	ackTx := make(map[ackKey]ackStamp)
	ackRx := make(map[ackKey]ackStamp)
	stamp := func(at map[ackKey]ackStamp, k ackKey, nanos int64) {
		s := at[k]
		s.nanos = nanos
		s.n++
		at[k] = s
	}

	minRTT := int64(0)
	for _, ev := range events {
		if ev.End == WireSender {
			m.SenderEvents++
		} else {
			m.ReceiverEvents++
		}
		switch ev.Kind {
		case WireEnqueue:
			b := get(ev.FlowID, ev.Seq)
			b.tl.EnqNanos = ev.Nanos
			b.tl.PayloadLen = ev.A
		case WireSched:
			b := get(ev.FlowID, ev.Seq)
			b.tl.SchedCopies = ev.A
			b.tl.SchedVerdict = ev.B
		case WireTx:
			c := copyAt(get(ev.FlowID, ev.Seq), ev.Path, ev.PathSeq)
			c.TxNanos = ev.Nanos
			c.Flags = ev.A
		case WireRx:
			b := get(ev.FlowID, ev.Seq)
			c := copyAt(b, ev.Path, ev.PathSeq)
			c.RxNanos = ev.Nanos
			c.Flags = ev.B
			// The header echo reconstructs the accept time even when the
			// sender stream is absent or its ring overwrote the enqueue.
			if b.tl.EnqNanos == 0 && ev.A > 0 {
				b.tl.EnqNanos = ev.A
			}
		case WireDedup:
			c := copyAt(get(ev.FlowID, ev.Seq), ev.Path, ev.PathSeq)
			c.Deduped = true
		case WireDeliver:
			b := get(ev.FlowID, ev.Seq)
			b.tl.DeliverNanos = ev.Nanos
			b.rxAdm = ev.A
			b.releaseAt = ev.B
			b.admPath = ev.Path
			b.admSeq = ev.PathSeq
			// The deliver event names the admitted copy exactly: reuse (or
			// create) its entry so a single-ended trace still shows it.
			if c := copyAt(b, ev.Path, ev.PathSeq); c.RxNanos == 0 {
				c.RxNanos = ev.A
			}
		case WireLost:
			get(ev.FlowID, ev.Seq).tl.Lost = true
		case WireAckTx:
			stamp(ackTx, ackKey{ev.Path, uint64(ev.A), uint64(ev.B)}, ev.Nanos)
		case WireAckRx:
			if ev.A > 0 && (minRTT == 0 || ev.A < minRTT) {
				minRTT = ev.A
			}
			m.RTTSamples++
			if ev.Seq != 0 || ev.PathSeq != 0 {
				stamp(ackRx, ackKey{ev.Path, ev.Seq, ev.PathSeq}, ev.Nanos)
			}
		}
	}
	m.MinRTT = minRTT
	minBack, haveBack := int64(0), false
	for k, rx := range ackRx {
		tx, ok := ackTx[k]
		if !ok || rx.n > 1 || tx.n > 1 {
			continue
		}
		m.AckPairs++
		if back := rx.nanos - tx.nanos; !haveBack || back < minBack {
			minBack, haveBack = back, true
		}
	}

	// Clock offset: half the difference of the fastest forward gap and
	// the fastest reverse (ack) gap, or without ack pairs the fastest
	// forward gap minus half the fastest round trip. With no matched
	// copies the offset stays 0 (single-ended streams still render,
	// attribution just lives in one clock).
	minGap, haveGap := int64(0), false
	for _, k := range order {
		for _, c := range packets[k].tl.Copies {
			if c.TxNanos == 0 || c.RxNanos == 0 {
				continue
			}
			gap := c.RxNanos - c.TxNanos
			if !haveGap || gap < minGap {
				minGap, haveGap = gap, true
			}
		}
	}
	switch {
	case haveGap && haveBack:
		m.OffsetNanos = (minGap - minBack) / 2
	case haveGap:
		m.OffsetNanos = minGap - minRTT/2
	}

	// Finalize: attribution per delivered packet, per-path aggregation.
	pathIdx := make(map[int32]int)
	var pathOrder []int32
	pstat := func(p int32) *WirePathStats {
		i, ok := pathIdx[p]
		if !ok {
			i = len(m.Paths)
			pathIdx[p] = i
			m.Paths = append(m.Paths, WirePathStats{Path: p})
			pathOrder = append(pathOrder, p)
		}
		return &m.Paths[i]
	}
	var senderQ, prop, reorder, deliver, e2e []int64
	for _, k := range order {
		b := packets[k]
		tl := &b.tl
		for i := range tl.Copies {
			c := &tl.Copies[i]
			ps := pstat(c.Path)
			if c.TxNanos != 0 {
				ps.Tx++
			}
			if c.RxNanos != 0 {
				ps.Rx++
			}
			if c.Deduped {
				ps.Deduped++
			}
			if c.TxNanos != 0 && c.RxNanos != 0 {
				p := (c.RxNanos - m.OffsetNanos) - c.TxNanos
				ps.PropSum += p
				ps.PropN++
				if p > ps.PropMax {
					ps.PropMax = p
				}
			}
		}
		if tl.Lost && tl.DeliverNanos == 0 {
			m.Lost++
			continue
		}
		if tl.DeliverNanos == 0 {
			continue // still in flight when the trace was cut
		}
		m.Delivered++
		// The admitted copy, named by the deliver event's (path, pathSeq);
		// the WireDeliver case above guaranteed its entry exists.
		var adm *WireCopy
		for i := range tl.Copies {
			c := &tl.Copies[i]
			if c.Path == b.admPath && c.PathSeq == b.admSeq {
				adm = c
				break
			}
		}
		adm.Admitted = true
		if b.admPath >= 0 {
			pstat(b.admPath).Wins++
		}
		tl.Complete = tl.EnqNanos != 0 && adm.TxNanos != 0 && b.rxAdm != 0 && b.releaseAt != 0
		// Degrade gracefully on truncated timelines: a missing tx collapses
		// SenderQueue into Propagation, so the identity still holds.
		tx := adm.TxNanos
		if tx == 0 {
			tx = tl.EnqNanos
		}
		if tl.EnqNanos == 0 {
			continue // no sender-side anchor at all: nothing to attribute
		}
		tl.Attr = WireAttr{
			SenderQueue: tx - tl.EnqNanos,
			Propagation: (b.rxAdm - m.OffsetNanos) - tx,
			ReorderWait: b.releaseAt - b.rxAdm,
			Deliver:     tl.DeliverNanos - b.releaseAt,
		}
		tl.E2E = (tl.DeliverNanos - m.OffsetNanos) - tl.EnqNanos
		if tl.Complete {
			senderQ = append(senderQ, tl.Attr.SenderQueue)
			prop = append(prop, tl.Attr.Propagation)
			reorder = append(reorder, tl.Attr.ReorderWait)
			deliver = append(deliver, tl.Attr.Deliver)
			e2e = append(e2e, tl.E2E)
		} else {
			m.Incomplete++
		}
	}
	for i := range m.Paths {
		if m.Paths[i].PropN > 0 {
			m.Paths[i].PropMean = m.Paths[i].PropSum / int64(m.Paths[i].PropN)
		}
	}
	sort.Slice(m.Paths, func(i, j int) bool { return m.Paths[i].Path < m.Paths[j].Path })
	m.Stages = []WireStage{
		{Stage: "sender_queue", Latency: summarizeNanos(senderQ)},
		{Stage: "propagation", Latency: summarizeNanos(prop)},
		{Stage: "reorder_wait", Latency: summarizeNanos(reorder)},
		{Stage: "deliver", Latency: summarizeNanos(deliver)},
		{Stage: "e2e", Latency: summarizeNanos(e2e)},
	}

	// Slowest first: the tail is the point. Lost/unattributed timelines
	// (E2E 0) sort last; ties break on identity for determinism.
	m.Timelines = make([]WireTimeline, 0, len(order))
	for _, k := range order {
		tl := packets[k].tl
		// Copy order must not depend on event arrival order (the gateway
		// concatenates rings; inspect may see any interleaving).
		sort.Slice(tl.Copies, func(i, j int) bool {
			if tl.Copies[i].Path != tl.Copies[j].Path {
				return tl.Copies[i].Path < tl.Copies[j].Path
			}
			return tl.Copies[i].PathSeq < tl.Copies[j].PathSeq
		})
		m.Timelines = append(m.Timelines, tl)
	}
	sort.Slice(m.Timelines, func(i, j int) bool {
		a, b := &m.Timelines[i], &m.Timelines[j]
		if a.E2E != b.E2E {
			return a.E2E > b.E2E
		}
		if a.FlowID != b.FlowID {
			return a.FlowID < b.FlowID
		}
		return a.Seq < b.Seq
	})
	return m
}

// Slowest returns the k slowest attributed timelines.
func (m *WireMerge) Slowest(k int) []WireTimeline {
	if k > len(m.Timelines) {
		k = len(m.Timelines)
	}
	return m.Timelines[:k]
}

// summarizeNanos computes the repo's standard tail summary over a sample
// set (exact order statistics — the merge is offline, so no sketching).
func summarizeNanos(vs []int64) stats.Summary {
	var s stats.Summary
	s.Count = uint64(len(vs))
	if len(vs) == 0 {
		return s
	}
	sorted := make([]int64, len(vs))
	copy(sorted, vs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	q := func(p float64) int64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	s.Mean = float64(sum) / float64(len(sorted))
	s.Min = sorted[0]
	s.P50 = q(0.50)
	s.P90 = q(0.90)
	s.P95 = q(0.95)
	s.P99 = q(0.99)
	s.P999 = q(0.999)
	s.Max = sorted[len(sorted)-1]
	return s
}
