package core

import (
	"testing"
	"testing/quick"

	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

func rp(flow, seq uint64) *packet.Packet {
	return &packet.Packet{ID: flow*1000 + seq, OrigID: flow*1000 + seq, FlowID: flow, Seq: seq}
}

func TestReorderInOrderPassThrough(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Millisecond, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	for seq := uint64(0); seq < 5; seq++ {
		r.Submit(rp(1, seq))
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d", len(got))
	}
	st := r.Stats()
	if st.InOrder != 5 || st.OutOfOrder != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReorderHoldsGapThenDrains(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Millisecond, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	r.Submit(rp(1, 0))
	r.Submit(rp(1, 2)) // held: 1 missing
	r.Submit(rp(1, 3)) // held
	if len(got) != 1 {
		t.Fatalf("out-of-order released early: %v", got)
	}
	r.Submit(rp(1, 1)) // fills the gap
	if len(got) != 4 {
		t.Fatalf("gap fill did not drain: %v", got)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("delivery out of order: %v", got)
		}
	}
	st := r.Stats()
	if st.OutOfOrder != 2 || st.MaxOccupancy != 2 || st.Pending != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReorderTimeoutSkipsGap(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, 100*sim.Microsecond, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	r.Submit(rp(1, 0))
	r.Submit(rp(1, 2)) // seq 1 will never arrive
	s.RunUntil(99 * sim.Microsecond)
	if len(got) != 1 {
		t.Fatal("released before timeout")
	}
	s.RunUntil(150 * sim.Microsecond)
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("timeout did not release: %v", got)
	}
	if r.Stats().TimeoutFires != 1 {
		t.Fatalf("timeout count %d", r.Stats().TimeoutFires)
	}
}

func TestReorderLateArrivalAfterSkip(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, 100*sim.Microsecond, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	r.Submit(rp(1, 0))
	r.Submit(rp(1, 2))
	s.RunUntil(200 * sim.Microsecond) // skip fires, seq2 released
	late := rp(1, 1)
	r.Submit(late)
	if late.Dropped != packet.DropReorder {
		t.Fatalf("late straggler not dropped: %v", late.Dropped)
	}
	if r.Stats().LateDrops != 1 {
		t.Fatal("late drop not counted")
	}
	if len(got) != 2 {
		t.Fatalf("late straggler delivered: %v", got)
	}
}

func TestReorderDuplicateFirstWins(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Millisecond, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	a := rp(1, 0)
	b := rp(1, 0)
	b.IsDup = true
	r.Submit(a)
	r.Submit(b)
	if len(got) != 1 {
		t.Fatalf("duplicate delivered twice: %v", got)
	}
	if b.Dropped != packet.DropCancelled {
		t.Fatalf("loser drop reason %v", b.Dropped)
	}
	if r.Stats().DupDrops != 1 {
		t.Fatal("dup drop not counted")
	}
}

func TestReorderDuplicateBothEarly(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Millisecond, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	a := rp(1, 1)
	b := rp(1, 1)
	b.IsDup = true
	r.Submit(a) // pending (seq 0 missing)
	r.Submit(b) // duplicate of pending
	if r.Stats().DupDrops != 1 {
		t.Fatal("pending duplicate not deduped")
	}
	r.Submit(rp(1, 0))
	if len(got) != 2 {
		t.Fatalf("deliveries %v", got)
	}
}

func TestReorderIndependentFlows(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Millisecond, 1, func(p *packet.Packet) { got = append(got, p.FlowID*100+p.Seq) })
	r.Submit(rp(1, 1)) // flow 1 blocked on seq 0
	r.Submit(rp(2, 0)) // flow 2 independent
	r.Submit(rp(2, 1))
	if len(got) != 2 || got[0] != 200 || got[1] != 201 {
		t.Fatalf("flow isolation broken: %v", got)
	}
}

func TestReorderFlush(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Second, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	r.Submit(rp(1, 3))
	r.Submit(rp(1, 1))
	r.Submit(rp(1, 5))
	r.Flush()
	if len(got) != 3 {
		t.Fatalf("flush released %d", len(got))
	}
	// Flush must preserve sequence order.
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("flush order: %v", got)
	}
	if r.Stats().Pending != 0 {
		t.Fatal("pending after flush")
	}
}

func TestReorderZeroTimeoutWaitsForever(t *testing.T) {
	s := sim.New()
	count := 0
	r := NewReorder(s, 0, 1, func(p *packet.Packet) { count++ })
	r.Submit(rp(1, 1))
	s.RunUntil(10 * sim.Second)
	if count != 0 {
		t.Fatal("zero-timeout reorder released a gap")
	}
	if s.Pending() != 0 {
		t.Fatal("zero-timeout reorder scheduled timers")
	}
}

func TestReorderNilDeliverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil deliver did not panic")
		}
	}()
	NewReorder(sim.New(), 0, 1, nil)
}

func TestReorderDelayStamped(t *testing.T) {
	s := sim.New()
	var heldDelay sim.Duration
	r := NewReorder(s, sim.Millisecond, 1, func(p *packet.Packet) {
		if p.Seq == 1 {
			heldDelay = p.ReorderWait()
		}
	})
	early := rp(1, 1)
	early.Done = 0
	r.Submit(early)
	s.RunUntil(300 * sim.Microsecond)
	s.At(300*sim.Microsecond, func() { r.Submit(rp(1, 0)) })
	s.Run()
	if heldDelay != 300*sim.Microsecond {
		t.Fatalf("reorder wait %v, want 300µs", heldDelay)
	}
}

// Property: any permutation of a window of sequences is delivered in order
// and completely (no timeout involved).
func TestQuickReorderAlwaysInOrder(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		s := sim.New()
		var got []uint64
		r := NewReorder(s, 0, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
		perm := xrand.New(seed).Perm(n)
		for _, v := range perm {
			r.Submit(rp(1, uint64(v)))
		}
		if len(got) != n {
			return false
		}
		for i, seq := range got {
			if seq != uint64(i) {
				return false
			}
		}
		return r.Stats().Pending == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with duplicates of every sequence, each sequence is delivered
// exactly once, in order.
func TestQuickReorderDedupComplete(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		s := sim.New()
		delivered := make(map[uint64]int)
		order := []uint64{}
		r := NewReorder(s, 0, 1, func(p *packet.Packet) {
			delivered[p.Seq]++
			order = append(order, p.Seq)
		})
		// Two copies of each seq, submitted in a random interleaving.
		items := make([]uint64, 0, 2*n)
		for i := 0; i < n; i++ {
			items = append(items, uint64(i), uint64(i))
		}
		rng := xrand.New(seed)
		for i := len(items) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			items[i], items[j] = items[j], items[i]
		}
		for _, seq := range items {
			p := rp(1, seq)
			p.IsDup = true
			r.Submit(p)
		}
		for i := 0; i < n; i++ {
			if delivered[uint64(i)] != 1 {
				return false
			}
		}
		for i, seq := range order {
			if seq != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReorderSkipPunchesHole(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Second, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	r.Submit(rp(1, 0))
	r.Submit(rp(1, 2)) // blocked on seq 1
	if len(got) != 1 {
		t.Fatal("early release")
	}
	r.Skip(1, 1) // engine dropped seq 1
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("hole punch did not release successor: %v", got)
	}
	if r.Stats().HolesPunched != 1 {
		t.Fatal("hole not counted")
	}
}

func TestReorderSkipAtCursor(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Second, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	r.Skip(1, 0) // first packet of the flow is lost
	r.Submit(rp(1, 1))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("cursor skip broken: %v", got)
	}
}

func TestReorderSkipFutureThenFill(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Second, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	r.Skip(1, 2)       // tombstone ahead of the cursor
	r.Submit(rp(1, 3)) // blocked on 0,1
	r.Submit(rp(1, 0))
	r.Submit(rp(1, 1)) // drains 0,1, tombstone 2, then 3
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("tombstone drain: %v", got)
	}
	if r.Stats().Pending != 0 {
		t.Fatal("pending left behind")
	}
}

func TestReorderSkipBelowCursorIgnored(t *testing.T) {
	s := sim.New()
	r := NewReorder(s, sim.Second, 1, func(p *packet.Packet) {})
	r.Submit(rp(1, 0))
	r.Skip(1, 0) // already released
	if r.Stats().HolesPunched != 0 {
		t.Fatal("stale skip counted")
	}
}

func TestReorderTimeoutReleasesAllExpired(t *testing.T) {
	// The regression behind the E1 artifact: multiple gaps must clear in
	// ONE timeout pass, not one gap per timeout period.
	s := sim.New()
	var got []uint64
	r := NewReorder(s, 100*sim.Microsecond, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	// Gaps at 0,2,4,6: pending 1,3,5,7 all submitted now.
	for _, seq := range []uint64{1, 3, 5, 7} {
		r.Submit(rp(1, seq))
	}
	s.RunUntil(150 * sim.Microsecond)
	if len(got) != 4 {
		t.Fatalf("one timeout pass released %d of 4 expired packets", len(got))
	}
	if s.Now() > 150*sim.Microsecond {
		t.Fatal("took multiple timeout periods")
	}
}

func TestReorderFlushTombstones(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, sim.Second, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	r.Skip(1, 1)
	r.Submit(rp(1, 2))
	r.Flush()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("flush with tombstone: %v", got)
	}
}
