package core

import (
	"testing"

	"mpdp/internal/packet"
	"mpdp/internal/sim"
)

// FuzzReorder drives the reorder buffer through arbitrary interleavings of
// in-order arrivals, out-of-order arrivals, duplicate copies, hole punches,
// and time advances (firing gap timeouts), then checks the stage's
// contract:
//
//   - per flow, delivered sequence numbers are strictly increasing;
//   - no (flow, seq) is ever delivered twice;
//   - after Flush, the buffer is empty (no leaked entries or tombstones);
//   - occupancy counters never go negative.
//
// The byte stream is an op tape: two bytes per op (opcode, argument).
func FuzzReorder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 2, 0})             // mint + submit in order
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 1, 0, 1, 0}) // out-of-order pair
	f.Add([]byte{0, 0, 1, 0, 4, 0, 4, 1})             // duplicates of a released seq
	f.Add([]byte{0, 0, 0, 0, 5, 0, 1, 0})             // punch a hole, then deliver
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 0, 2, 200})     // strand a gap, ride the timeout
	f.Add([]byte{0, 0, 3, 0, 2, 255, 1, 0})           // late straggler after timeout

	f.Fuzz(fuzzReorderOne)
}

func fuzzReorderOne(t *testing.T, data []byte) {
	s := sim.New()
	type key struct{ flow, seq uint64 }
	lastSeq := map[uint64]int64{} // flow -> last delivered seq
	deliveredAt := map[key]bool{}
	r := NewReorder(s, 50*sim.Microsecond, 1, func(p *packet.Packet) {
		k := key{p.FlowID, p.Seq}
		if deliveredAt[k] {
			t.Fatalf("flow %d seq %d delivered twice", p.FlowID, p.Seq)
		}
		deliveredAt[k] = true
		if last, ok := lastSeq[p.FlowID]; ok && int64(p.Seq) <= last {
			t.Fatalf("flow %d delivered seq %d after %d", p.FlowID, p.Seq, last)
		}
		lastSeq[p.FlowID] = int64(p.Seq)
	})
	r.OnLost(func(p *packet.Packet) {})

	nextSeq := map[uint64]uint64{}     // per-flow mint cursor
	inflight := map[uint64][]uint64{}  // minted but not yet submitted
	submitted := map[uint64][]uint64{} // submitted at least once

	pkt := func(flow, seq uint64, dup bool) *packet.Packet {
		return &packet.Packet{FlowID: flow, Seq: seq, IsDup: dup}
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		flow := uint64(arg % 3)
		switch op % 6 {
		case 0: // mint the flow's next sequence (goes in flight)
			seq := nextSeq[flow]
			nextSeq[flow] = seq + 1
			inflight[flow] = append(inflight[flow], seq)
		case 1: // submit the oldest in-flight packet (in order)
			if q := inflight[flow]; len(q) > 0 {
				seq := q[0]
				inflight[flow] = q[1:]
				submitted[flow] = append(submitted[flow], seq)
				r.Submit(pkt(flow, seq, false))
			}
		case 2: // advance virtual time (gap timers may fire)
			s.RunUntil(s.Now() + sim.Duration(arg)*sim.Microsecond)
		case 3: // submit the newest in-flight packet (out of order)
			if q := inflight[flow]; len(q) > 0 {
				seq := q[len(q)-1]
				inflight[flow] = q[:len(q)-1]
				submitted[flow] = append(submitted[flow], seq)
				r.Submit(pkt(flow, seq, false))
			}
		case 4: // submit a duplicate copy of something already submitted
			if q := submitted[flow]; len(q) > 0 {
				seq := q[int(arg)%len(q)]
				r.Submit(pkt(flow, seq, true))
			}
		case 5: // punch: the oldest in-flight packet is declared lost
			if q := inflight[flow]; len(q) > 0 {
				seq := q[0]
				inflight[flow] = q[1:]
				r.Skip(flow, seq)
			}
		}
		if st := r.Stats(); st.Pending < 0 || st.PendingPkts < 0 || st.PendingPkts > st.Pending {
			t.Fatalf("occupancy corrupt: pending=%d pktPending=%d", st.Pending, st.PendingPkts)
		}
	}

	// Drain: fire any armed timers, then flush the rest.
	s.Run()
	r.Flush()
	st := r.Stats()
	if st.Pending != 0 || st.PendingPkts != 0 {
		t.Fatalf("buffer not empty after Flush: pending=%d pktPending=%d", st.Pending, st.PendingPkts)
	}

	// Every accepted packet is eventually delivered exactly once: InOrder
	// packets immediately, OutOfOrder ones via drain, timeout, or Flush.
	// Rejected submissions (dup copies, late stragglers) never enter
	// either counter.
	if got := uint64(len(deliveredAt)); got != st.InOrder+st.OutOfOrder {
		t.Fatalf("delivered %d unique packets, counters say %d in-order + %d buffered",
			got, st.InOrder, st.OutOfOrder)
	}
}
