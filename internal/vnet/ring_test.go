package vnet

import (
	"testing"

	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// bandPkt builds a packet whose DSCP puts it in the given qdisc band
// (0 latency-sensitive, 1 default, 2 bulk) with the given payload size.
func bandPkt(id uint64, band, payload int) *packet.Packet {
	dscp := [3]uint8{1, 0, 2}[band]
	key := packet.FlowKey{
		SrcIP: packet.IP4(10, 0, 0, byte(id%200+1)), DstIP: packet.IP4(10, 1, 0, 5),
		SrcPort: uint16(20000 + id%1000), DstPort: 80, Proto: packet.ProtoUDP,
	}
	return &packet.Packet{
		ID: id, OrigID: id, Flow: key, FlowID: key.Hash64(),
		Data: packet.BuildUDP(key, make([]byte, payload), packet.BuildOpts{TOS: dscp << 2}),
	}
}

// The ring FIFO against a slice model, through enough mixed enqueues,
// dequeues and cancels to wrap the ring many times: order, Len, Bytes,
// tail drop and CancelID must match exactly, and the ring must hold no
// reference to a packet it has handed out.
func TestFIFORingWrapsUnderMixedOps(t *testing.T) {
	for _, capacity := range []int{1, 16, 37} {
		f := NewFIFO(capacity)
		rng := xrand.New(uint64(capacity))
		var model []*packet.Packet
		modelBytes := 0
		nextID := uint64(1)
		dequeued := 0
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				p := bandPkt(nextID, 1, rng.Intn(1400))
				nextID++
				full := len(model) >= capacity
				if got := f.Enqueue(p); got == full {
					t.Fatalf("cap %d op %d: Enqueue = %v with %d queued", capacity, op, got, len(model))
				}
				if !full {
					model = append(model, p)
					modelBytes += p.Size()
				}
			case r < 9:
				var want *packet.Packet
				if len(model) > 0 {
					want, model = model[0], model[1:]
					modelBytes -= want.Size()
					dequeued++
				}
				if got := f.Dequeue(); got != want {
					t.Fatalf("cap %d op %d: FIFO order broken", capacity, op)
				}
			default:
				// Cancel a recent ID: queued, already served, or never seen.
				id := nextID - 1 - uint64(rng.Intn(2*capacity+2))
				want := false
				for _, p := range model {
					if p.ID == id && !p.Cancelled {
						want = true
						break
					}
				}
				if got := f.CancelID(id); got != want {
					t.Fatalf("cap %d op %d: CancelID(%d) = %v, want %v", capacity, op, id, got, want)
				}
			}
			if f.Len() != len(model) || f.Bytes() != modelBytes {
				t.Fatalf("cap %d op %d: Len/Bytes = %d/%d, want %d/%d", capacity, op, f.Len(), f.Bytes(), len(model), modelBytes)
			}
			held := 0
			for _, p := range f.ring {
				if p != nil {
					held++
				}
			}
			if held != f.Len() {
				t.Fatalf("cap %d op %d: ring holds %d packets, Len %d", capacity, op, held, f.Len())
			}
		}
		if dequeued < 4*len(f.ring) {
			t.Fatalf("cap %d: only %d dequeues, ring of %d never wrapped much", capacity, dequeued, len(f.ring))
		}
	}
}

// bandModel is the slice-backed reference for the two banded disciplines:
// strict priority, and DRR exactly as specified on (*DRR).Dequeue.
type bandModel struct {
	per      int
	bands    [3][]*packet.Packet
	drr      bool
	quanta   [3]int
	deficit  [3]int
	active   int
	credited bool
}

func (m *bandModel) enqueue(p *packet.Packet) bool {
	b := classBand(p)
	if len(m.bands[b]) >= m.per {
		return false
	}
	m.bands[b] = append(m.bands[b], p)
	return true
}

func (m *bandModel) pop(b int) *packet.Packet {
	p := m.bands[b][0]
	m.bands[b] = m.bands[b][1:]
	return p
}

func (m *bandModel) dequeue() *packet.Packet {
	if len(m.bands[0])+len(m.bands[1])+len(m.bands[2]) == 0 {
		return nil
	}
	if m.drr {
		for visit := 0; visit < 64; visit++ {
			a := m.active
			if len(m.bands[a]) == 0 {
				m.deficit[a] = 0
				m.active, m.credited = (a+1)%3, false
				continue
			}
			if !m.credited {
				m.deficit[a] += m.quanta[a]
				m.credited = true
			}
			if size := m.bands[a][0].Size(); m.deficit[a] >= size {
				m.deficit[a] -= size
				return m.pop(a)
			}
			m.active, m.credited = (a+1)%3, false
		}
	}
	for b := range m.bands {
		if len(m.bands[b]) > 0 {
			return m.pop(b)
		}
	}
	return nil
}

// StrictPriority and DRR built on ring FIFO bands serve exactly what the
// slice model serves, through band wrap-around and per-band tail drop.
func TestBandedQdiscsOverRingFIFOs(t *testing.T) {
	cases := []struct {
		name  string
		q     Qdisc
		model *bandModel
	}{
		{"strict", NewStrictPriority(30), &bandModel{per: 10}},
		{"drr", NewDRR(30, [3]int{3000, 1500, 750}), &bandModel{per: 10, drr: true, quanta: [3]int{3000, 1500, 750}}},
		{"drr-small-quanta", NewDRR(30, [3]int{300, 200, 100}), &bandModel{per: 10, drr: true, quanta: [3]int{300, 200, 100}}},
	}
	for _, c := range cases {
		rng := xrand.New(7)
		queued := 0
		for op := 0; op < 20000; op++ {
			if rng.Intn(5) < 3 { // enqueue-heavy, so bands fill and tail-drop
				p := bandPkt(uint64(op), rng.Intn(3), rng.Intn(1400))
				want := c.model.enqueue(p)
				if got := c.q.Enqueue(p); got != want {
					t.Fatalf("%s op %d: Enqueue = %v, model %v", c.name, op, got, want)
				}
				if want {
					queued++
				}
			} else {
				want := c.model.dequeue()
				if got := c.q.Dequeue(); got != want {
					t.Fatalf("%s op %d: dequeued a different packet than the model", c.name, op)
				}
				if want != nil {
					queued--
				}
			}
			if c.q.Len() != queued {
				t.Fatalf("%s op %d: Len %d, want %d", c.name, op, c.q.Len(), queued)
			}
		}
	}
}

// BenchmarkFIFOEnqueueDequeue holds a 100-deep FIFO steady while the ring
// wraps: one enqueue and one dequeue per op.
func BenchmarkFIFOEnqueueDequeue(b *testing.B) {
	f := NewFIFO(512)
	p := bandPkt(1, 1, 200)
	for i := 0; i < 100; i++ {
		f.Enqueue(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Enqueue(f.Dequeue())
	}
}

// BenchmarkLaneEnqueueFinish runs a lane with a 64-packet backlog: each op
// fires one completion, which starts the next packet's service, and
// re-enqueues the finished packet.
func BenchmarkLaneEnqueueFinish(b *testing.B) {
	s := sim.New()
	var last *packet.Packet
	l := NewLane(0, s, LaneConfig{Chain: fixedChain(1000), JitterSigma: 0.15}, xrand.New(1),
		func(p *packet.Packet, _ packet.Verdict) { last = p })
	for i := uint64(0); i < 64; i++ {
		l.Enqueue(bandPkt(i, 1, 200))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		l.Enqueue(last)
	}
	if l.QueueDepth() != 64 {
		b.Fatalf("queue depth %d, want a constant 64", l.QueueDepth())
	}
}
