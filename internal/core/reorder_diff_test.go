package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// scanReorder is the reference for the sorted gap-timeout release: the
// reorder buffer as it was before the sorted walk, which rescans the
// pending map for its minimum before every release. Only the release
// machinery is kept (no flight-recorder hooks); everything observable —
// delivery order and times, losses, counters, timer arming — must match
// Reorder exactly.
type scanReorder struct {
	sim     *sim.Simulator
	timeout sim.Duration
	deliver DeliverFunc
	onLost  DeliverFunc
	flows   map[uint64]*scanFlow

	inOrder, outOfOrder, dupDrops, lateDrops uint64
	timeoutRel, holesPunched, gapSkipped     uint64
	occupancy, pktOccupancy, maxOccupancy    int
}

type scanFlow struct {
	r       *scanReorder
	next    uint64
	pending map[uint64]pendingPkt
	timer   sim.Handle
}

func (f *scanFlow) Fire() {
	f.timer = sim.Handle{}
	f.r.onTimeout(f)
}

func newScanReorder(s *sim.Simulator, timeout sim.Duration, deliver DeliverFunc) *scanReorder {
	return &scanReorder{sim: s, timeout: timeout, deliver: deliver, flows: map[uint64]*scanFlow{}}
}

func (r *scanReorder) OnLost(fn DeliverFunc) { r.onLost = fn }

func (r *scanReorder) flow(id uint64) *scanFlow {
	f, ok := r.flows[id]
	if !ok {
		f = &scanFlow{r: r, pending: map[uint64]pendingPkt{}}
		r.flows[id] = f
	}
	return f
}

func (r *scanReorder) Submit(p *packet.Packet) {
	f := r.flow(p.FlowID)
	switch {
	case p.Seq < f.next:
		if p.IsDup || p.Cancelled {
			r.dupDrops++
			p.Dropped = packet.DropCancelled
		} else {
			r.lateDrops++
			p.Dropped = packet.DropReorder
			if r.onLost != nil {
				r.onLost(p)
			}
		}
	case p.Seq == f.next:
		r.inOrder++
		r.release(f, p)
		r.drain(f)
	default:
		if _, dup := f.pending[p.Seq]; dup {
			r.dupDrops++
			p.Dropped = packet.DropCancelled
			return
		}
		r.outOfOrder++
		f.pending[p.Seq] = pendingPkt{p: p, at: r.sim.Now()}
		r.occupancy++
		r.pktOccupancy++
		if r.occupancy > r.maxOccupancy {
			r.maxOccupancy = r.occupancy
		}
		r.armTimer(f)
	}
}

func (r *scanReorder) Skip(flowID, seq uint64) {
	f := r.flow(flowID)
	if seq < f.next {
		return
	}
	r.holesPunched++
	if seq == f.next {
		f.next = seq + 1
		r.drain(f)
		return
	}
	if _, exists := f.pending[seq]; exists {
		return
	}
	f.pending[seq] = pendingPkt{at: r.sim.Now()}
	r.occupancy++
	if r.occupancy > r.maxOccupancy {
		r.maxOccupancy = r.occupancy
	}
	r.armTimer(f)
}

func (r *scanReorder) release(f *scanFlow, p *packet.Packet) {
	if p != nil {
		f.next = p.Seq + 1
		p.Delivered = r.sim.Now()
		r.deliver(p)
		return
	}
	f.next++
}

func (r *scanReorder) drain(f *scanFlow) {
	for {
		e, ok := f.pending[f.next]
		if !ok {
			break
		}
		delete(f.pending, f.next)
		r.occupancy--
		if e.p != nil {
			r.pktOccupancy--
			r.release(f, e.p)
		} else {
			f.next++
		}
	}
	if len(f.pending) == 0 {
		r.sim.Cancel(f.timer)
		f.timer = sim.Handle{}
	} else {
		r.armTimer(f)
	}
}

func (r *scanReorder) armTimer(f *scanFlow) {
	if r.timeout <= 0 || !f.timer.IsZero() || len(f.pending) == 0 {
		return
	}
	var oldest sim.Time = 1<<63 - 1
	for _, e := range f.pending {
		if e.at < oldest {
			oldest = e.at
		}
	}
	fireIn := oldest + r.timeout - r.sim.Now()
	if fireIn < 1 {
		fireIn = 1
	}
	f.timer = r.sim.ScheduleHandler(fireIn, f)
}

func scanMin(pending map[uint64]pendingPkt) uint64 {
	min := ^uint64(0)
	for seq := range pending {
		if seq < min {
			min = seq
		}
	}
	return min
}

func (r *scanReorder) onTimeout(f *scanFlow) {
	cutoff := r.sim.Now() - r.timeout
	for len(f.pending) > 0 {
		min := scanMin(f.pending)
		e := f.pending[min]
		if e.at > cutoff {
			break
		}
		delete(f.pending, min)
		r.occupancy--
		r.gapSkipped += min - f.next
		if e.p != nil {
			r.pktOccupancy--
			r.timeoutRel++
			f.next = min
			r.release(f, e.p)
		} else {
			f.next = min + 1
		}
		r.drain(f)
	}
	r.armTimer(f)
}

func (r *scanReorder) Flush() {
	for id := uint64(0); id < diffFlows; id++ {
		f, ok := r.flows[id]
		if !ok {
			continue
		}
		r.sim.Cancel(f.timer)
		f.timer = sim.Handle{}
		for len(f.pending) > 0 {
			min := scanMin(f.pending)
			e := f.pending[min]
			delete(f.pending, min)
			r.occupancy--
			if e.p != nil {
				r.pktOccupancy--
				f.next = min
				r.release(f, e.p)
			} else {
				f.next = min + 1
			}
		}
	}
}

func (r *scanReorder) Stats() ReorderStats {
	return ReorderStats{
		InOrder: r.inOrder, OutOfOrder: r.outOfOrder, DupDrops: r.dupDrops,
		LateDrops: r.lateDrops, TimeoutFires: r.timeoutRel, HolesPunched: r.holesPunched,
		GapSkipped: r.gapSkipped, MaxOccupancy: r.maxOccupancy,
		Pending: r.occupancy, PendingPkts: r.pktOccupancy,
	}
}

// reorderStage is what the differential test needs from both buffers.
type reorderStage interface {
	Submit(p *packet.Packet)
	Skip(flowID, seq uint64)
	Flush()
	Stats() ReorderStats
	OnLost(fn DeliverFunc)
}

// diffFlows is the flow-ID space of the differential programs (flows are
// 0..diffFlows-1, so the reference Flush can visit them in ID order).
const diffFlows = 3

// diffOp is one step of a random program: kind selects the action, flow
// and arg parameterize it.
type diffOp struct {
	kind byte
	flow uint64
	arg  int
}

// diffProgram builds a random submit/skip/timeout program. Out-of-order
// submissions dominate so flows build multi-hole backlogs that a single
// gap timeout must release in several steps.
func diffProgram(rng *xrand.Rand, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		ops[i] = diffOp{kind: byte(rng.Intn(8)), flow: uint64(rng.Intn(diffFlows)), arg: rng.Intn(1 << 20)}
	}
	return ops
}

// diffRun is one reorder stage's observable history under a program.
type diffRun struct {
	events string         // every delivery and loss, with its virtual time
	stats  []ReorderStats // counters after every step, then after Flush

	reentered    int  // re-entrant Submit/Skip calls made during a timeout or Flush release
	multiRelease bool // some walk released several entries across holes of one flow
}

// runDiffProgram drives one reorder stage through ops. A delivery whose
// (flow, seq) hashes into the re-entry set submits or punches another
// sequence of the same flow from inside the deliver callback.
func runDiffProgram(ops []diffOp, build func(*sim.Simulator, sim.Duration, DeliverFunc) reorderStage) diffRun {
	s := sim.New()
	var run diffRun
	var log strings.Builder
	nextSeq := make([]uint64, diffFlows)    // per-flow mint cursor
	inflight := make([][]uint64, diffFlows) // minted, not yet submitted
	var rb reorderStage
	take := func(flow uint64, newest bool) (uint64, bool) {
		q := inflight[flow]
		if len(q) == 0 {
			return 0, false
		}
		if newest {
			inflight[flow] = q[:len(q)-1]
			return q[len(q)-1], true
		}
		inflight[flow] = q[1:]
		return q[0], true
	}
	mint := func(flow uint64, k int) {
		for ; k > 0; k-- {
			inflight[flow] = append(inflight[flow], nextSeq[flow])
			nextSeq[flow]++
		}
	}
	depth := 0
	releasing := false // inside RunUntil (gap timers) or Flush
	lastSeq := make([]int64, diffFlows)
	type flowAt struct {
		flow uint64
		at   sim.Time
	}
	gapReleases := map[flowAt]int{} // deliveries past a hole, per flow and instant
	deliver := func(p *packet.Packet) {
		fmt.Fprintf(&log, "D %d/%d @%d\n", p.FlowID, p.Seq, p.Delivered)
		if releasing && int64(p.Seq) != lastSeq[p.FlowID]+1 {
			k := flowAt{p.FlowID, p.Delivered}
			gapReleases[k]++
			run.multiRelease = run.multiRelease || gapReleases[k] > 1
		}
		lastSeq[p.FlowID] = int64(p.Seq)
		if depth > 2 {
			return
		}
		depth++
		defer func() { depth-- }()
		action := (p.FlowID*7919 + p.Seq*104729) % 7
		if releasing && action < 3 {
			run.reentered++
		}
		switch action {
		case 0: // re-enter with a successor: lands in pending (out of order)
			mint(p.FlowID, 2)
			if seq, ok := take(p.FlowID, true); ok {
				rb.Submit(&packet.Packet{FlowID: p.FlowID, Seq: seq})
			}
		case 1: // re-enter with the oldest in flight: may release and drain
			if seq, ok := take(p.FlowID, false); ok {
				rb.Submit(&packet.Packet{FlowID: p.FlowID, Seq: seq})
			}
		case 2: // re-enter with a punched hole
			if seq, ok := take(p.FlowID, true); ok {
				rb.Skip(p.FlowID, seq)
			}
		}
	}
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	rb = build(s, 50*sim.Microsecond, deliver)
	rb.OnLost(func(p *packet.Packet) {
		fmt.Fprintf(&log, "L %d/%d @%d\n", p.FlowID, p.Seq, s.Now())
	})
	for _, op := range ops {
		switch op.kind {
		case 0, 1: // mint a few sequences
			mint(op.flow, 1+op.arg%4)
		case 2, 3: // submit a random in-flight sequence (mostly out of order)
			q := inflight[op.flow]
			if len(q) > 0 {
				i := op.arg % len(q)
				seq := q[i]
				inflight[op.flow] = append(q[:i:i], q[i+1:]...)
				rb.Submit(&packet.Packet{FlowID: op.flow, Seq: seq})
			}
		case 4: // hedged copy of a minted sequence (dup or straggler)
			if nextSeq[op.flow] > 0 {
				seq := uint64(op.arg) % nextSeq[op.flow]
				rb.Submit(&packet.Packet{FlowID: op.flow, Seq: seq, IsDup: op.arg%2 == 0})
			}
		case 5: // punch a random in-flight sequence
			q := inflight[op.flow]
			if len(q) > 0 {
				i := op.arg % len(q)
				seq := q[i]
				inflight[op.flow] = append(q[:i:i], q[i+1:]...)
				rb.Skip(op.flow, seq)
			}
		case 6, 7: // advance virtual time: gap timers fire
			releasing = true
			s.RunUntil(s.Now() + sim.Duration(op.arg%80)*sim.Microsecond)
			releasing = false
		}
		run.stats = append(run.stats, rb.Stats())
	}
	releasing = true
	s.Run()
	rb.Flush()
	run.stats = append(run.stats, rb.Stats())
	run.events = log.String()
	return run
}

// TestReorderSortedReleaseMatchesScan checks the sorted gap-timeout and
// Flush release against the rescan-per-release reference on random
// submit/skip/timeout programs, deliver callbacks re-entering Submit and
// Skip on the same flow included: the histories must be identical.
func TestReorderSortedReleaseMatchesScan(t *testing.T) {
	rng := xrand.New(20261018)
	reentered, multiRelease := 0, 0
	for prog := 0; prog < 120; prog++ {
		ops := diffProgram(rng, 50+rng.Intn(200))
		got := runDiffProgram(ops, func(s *sim.Simulator, d sim.Duration, fn DeliverFunc) reorderStage {
			return NewReorder(s, d, 1, fn)
		})
		want := runDiffProgram(ops, func(s *sim.Simulator, d sim.Duration, fn DeliverFunc) reorderStage {
			return newScanReorder(s, d, fn)
		})
		if got.events != want.events {
			gl, wl := strings.Split(got.events, "\n"), strings.Split(want.events, "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("program %d diverges at event %d:\n got  %s\n want %s", prog, i, gl[i], wl[i])
				}
			}
			t.Fatalf("program %d: %d events vs %d", prog, len(gl), len(wl))
		}
		for i := range want.stats {
			if got.stats[i] != want.stats[i] {
				t.Fatalf("program %d step %d counters:\n got  %+v\n want %+v", prog, i, got.stats[i], want.stats[i])
			}
		}
		reentered += got.reentered
		if got.multiRelease {
			multiRelease++
		}
	}
	// The programs must reach the cases under test, or agreement is vacuous.
	if reentered == 0 || multiRelease == 0 {
		t.Fatalf("programs too tame: %d re-entrant releases, %d multi-release programs", reentered, multiRelease)
	}
	t.Logf("%d re-entrant deliveries during timeout/Flush releases; %d programs with multi-entry releases", reentered, multiRelease)
}

// TestReorderRearmFloorBoundsRefires pins the gap-timer re-arm when the
// oldest entry has expired behind a younger, unexpired smallest sequence:
// at a 1 ns floor (the simulator's) the timer refires every nanosecond until the
// head expires; a coarser floor bounds the refires and releases the same
// packets in the same order, at most one floor later.
func TestReorderRearmFloorBoundsRefires(t *testing.T) {
	for _, tc := range []struct {
		floor     sim.Duration
		maxFired  uint64
		minFired  uint64
		releaseBy sim.Time
	}{
		{floor: 1, minFired: 50000, maxFired: 50001, releaseBy: 150 * sim.Microsecond},
		{floor: 5 * sim.Microsecond, minFired: 1, maxFired: 11, releaseBy: 155 * sim.Microsecond},
	} {
		s := sim.New()
		var got []uint64
		var at sim.Time
		r := NewReorder(s, 100*sim.Microsecond, tc.floor, func(p *packet.Packet) {
			got = append(got, p.Seq)
			at = p.Delivered
		})
		r.Submit(rp(1, 2)) // waits for 0 and 1
		s.RunUntil(50 * sim.Microsecond)
		r.Submit(rp(1, 1)) // the new head, younger than seq 2
		before := s.Fired()
		s.RunUntil(200 * sim.Microsecond)
		fired := s.Fired() - before
		if !reflect.DeepEqual(got, []uint64{1, 2}) || at > tc.releaseBy {
			t.Fatalf("floor %d: released %v at %d, want [1 2] by %d", tc.floor, got, at, tc.releaseBy)
		}
		if fired < tc.minFired || fired > tc.maxFired {
			t.Fatalf("floor %d: %d gap-timer events, want %d..%d", tc.floor, fired, tc.minFired, tc.maxFired)
		}
	}
}

// TestReorderTimeoutReleasesBacklogInOrder pins the multi-hole backlog
// case the sorted walk exists for: one gap timeout releases every other
// sequence of a large backlog, ascending, with each hole counted lost.
func TestReorderTimeoutReleasesBacklogInOrder(t *testing.T) {
	s := sim.New()
	var got []uint64
	r := NewReorder(s, 100*sim.Microsecond, 1, func(p *packet.Packet) { got = append(got, p.Seq) })
	const n = 2000
	for i := n; i >= 1; i-- { // descending submission: map order is no help
		r.Submit(rp(1, uint64(2*i)))
	}
	s.RunUntil(200 * sim.Microsecond)
	want := make([]uint64, n)
	for i := range want {
		want[i] = uint64(2 * (i + 1))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("released %d entries out of order (first %v)", len(got), got[:min(len(got), 5)])
	}
	// Seqs 0 and 1 precede the first entry, then one hole before each other.
	if st := r.Stats(); st.GapSkipped != n+1 || st.TimeoutFires != n || st.Pending != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// BenchmarkReorderTimeoutBacklog releases a 20k-entry backlog with a hole
// before every entry through one gap timeout — the drain of a receiver
// closing behind a lossy stretch. A rescan per release makes this
// quadratic.
func BenchmarkReorderTimeoutBacklog(b *testing.B) {
	const n = 20000
	pkts := make([]packet.Packet, n)
	for i := 0; i < b.N; i++ {
		s := sim.New()
		delivered := 0
		r := NewReorder(s, 100*sim.Microsecond, 1, func(*packet.Packet) { delivered++ })
		for j := range pkts {
			pkts[j] = packet.Packet{FlowID: 1, Seq: uint64(2 * (j + 1))}
			r.Submit(&pkts[j])
		}
		s.RunUntil(200 * sim.Microsecond)
		if delivered != n {
			b.Fatalf("released %d of %d", delivered, n)
		}
	}
}
