package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/live"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/transport"
)

// wire_paced: one sender and one receiver over loopback UDP, driven open
// loop at a fixed rate below saturation. The generator releases every
// packet whose due time has passed, then sleeps one tick. On a 2-core
// Linux VM a 50 µs time.Sleep took about 1.1 ms, and a spinning generator
// starved the receiver goroutines of the two CPUs.
const (
	wirePaths     = 2
	wireFlows     = 8
	wirePayload   = 256
	wireRate      = 20000 // packets per second
	wireGap       = time.Second / wireRate
	wireTick      = time.Millisecond
	wireSetupWarm = 25
	wireSetups    = 201
	// wireSettle bounds the wait for in-flight packets after the last send.
	wireSettle = 2 * time.Second
)

// wireHealth mirrors the gateway's loopback tuning: a GC pause or a
// scheduler stall must not quarantine a healthy loopback path.
var wireHealth = core.HealthConfig{
	SuspectTimeout:    200 * sim.Millisecond,
	QuarantineBackoff: 50 * sim.Millisecond,
	ProbeSuccesses:    8,
	DropWindowMin:     64,
}

// wirePlan is the seeded input of a wire run: which flow each packet is
// sent on, the payload pattern, and the inverse map from a delivered
// (flow, seq) back to the packet's index and so to its due time.
type wirePlan struct {
	flowOf  []uint64  // packet index -> flow ID (1..wireFlows)
	index   [][]int32 // flow ID-1 -> per-flow seq -> packet index
	pattern []byte
}

func newWirePlan(seed uint64, n int) *wirePlan {
	rng := rand.New(rand.NewPCG(seed, 0x77697265))
	p := &wirePlan{
		flowOf:  make([]uint64, n),
		index:   make([][]int32, wireFlows),
		pattern: make([]byte, wirePayload),
	}
	for i := range p.pattern {
		p.pattern[i] = byte(rng.Uint32())
	}
	for i := 0; i < n; i++ {
		f := 1 + rng.Uint64N(wireFlows)
		p.flowOf[i] = f
		p.index[f-1] = append(p.index[f-1], int32(i))
	}
	return p
}

// dueIndex maps a delivered (flow, seq) to the index of the packet the
// generator sent as that flow's seq-th packet. The sender numbers each
// flow's packets 0, 1, 2, … in send order, which is index order.
func (p *wirePlan) dueIndex(flow, seq uint64) (int, bool) {
	if flow < 1 || flow > wireFlows || seq >= uint64(len(p.index[flow-1])) {
		return 0, false
	}
	return int(p.index[flow-1][seq]), true
}

// payload writes packet i's payload into buf: its index, then the pattern.
func (p *wirePlan) payload(buf []byte, i int) []byte {
	buf = append(buf[:0], p.pattern...)
	binary.LittleEndian.PutUint64(buf, uint64(i))
	return buf
}

// wireSession is one Listen/Dial pair plus the bookkeeping its deliver
// callback fills in. The callback runs on the receiver's single reorder
// goroutine; lat, delivered and bad are read only after recv.Close has
// waited for that goroutine.
type wireSession struct {
	plan  *wirePlan
	recv  *transport.Receiver
	send  *transport.Sender
	spans *transport.Spans
	ver   *transport.Verifier

	base     time.Time
	genStart atomic.Int64 // ns after base at which packet 0 is due

	lat       []int64 // ns from due time to in-order delivery; -1 until delivered
	delivered int
	bad       error
}

// openWire binds a receiver and dials a sender to it. n is the number of
// packets the session will carry (0 for a set-up probe that sends none).
func openWire(plan *wirePlan, n int) (*wireSession, error) {
	w := &wireSession{
		plan:  plan,
		spans: transport.NewSpans(nil),
		ver:   transport.NewVerifier(),
		base:  time.Now(),
	}
	if n > 0 {
		w.lat = make([]int64, n)
		for i := range w.lat {
			w.lat[i] = -1
		}
	}
	addrs := make([]string, wirePaths)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	recv, err := transport.Listen(transport.ReceiverConfig{
		Addrs:    addrs,
		Spans:    w.spans,
		Verifier: w.ver,
		Deliver:  w.onDeliver,
	})
	if err != nil {
		return nil, err
	}
	paths := make([]transport.PathConfig, wirePaths)
	for i, a := range recv.Addrs() {
		paths[i] = transport.PathConfig{RemoteAddr: a}
	}
	send, err := transport.Dial(transport.SenderConfig{
		Paths:     paths,
		Scheduler: transport.SchedHedge,
		Health:    wireHealth,
		Spans:     w.spans,
		Verifier:  w.ver,
	})
	if err != nil {
		_ = recv.Close() // the dial error is the one to report
		return nil, err
	}
	w.recv, w.send = recv, send
	return w, nil
}

func (w *wireSession) onDeliver(p *packet.Packet) {
	now := int64(time.Since(w.base))
	w.delivered++
	i, ok := w.plan.dueIndex(p.FlowID, p.Seq)
	switch {
	case !ok:
		w.setBad(fmt.Errorf("delivered flow %d seq %d was never generated", p.FlowID, p.Seq))
	case len(p.Data) != wirePayload || binary.LittleEndian.Uint64(p.Data) != uint64(i) ||
		!bytes.Equal(p.Data[8:], w.plan.pattern[8:]):
		w.setBad(fmt.Errorf("flow %d seq %d delivered a payload that packet %d did not carry", p.FlowID, p.Seq, i))
	default:
		w.lat[i] = now - w.genStart.Load() - int64(i)*int64(wireGap)
	}
}

func (w *wireSession) setBad(err error) {
	if w.bad == nil {
		w.bad = err
	}
}

func (w *wireSession) close() error {
	serr := w.send.Close()
	rerr := w.recv.Close()
	if serr != nil {
		return serr
	}
	return rerr
}

// wireResult is one paced session's measurements.
type wireResult struct {
	sent      int
	delivered int
	cost      cost
	late      []int64 // generator lateness per packet, ns
	lat       []int64 // due -> delivery per delivered packet, ns (sorted)
	sendNanos int64   // time inside Sender.Send (timed sessions only)
	sender    transport.SenderStats
	receiver  transport.ReceiverStats
	spans     *transport.Spans
}

// pace runs one open-loop session of n packets and closes it. With timed
// set, every Sender.Send call is timed.
func pace(w *wireSession, n int, timed bool) (wireResult, error) {
	r := wireResult{sent: n, late: make([]int64, n), spans: w.spans}
	buf := make([]byte, 0, wirePayload)
	runtime.GC()
	before := takeUsage()
	gen := int64(time.Since(w.base))
	w.genStart.Store(gen)
	var sendErr error
	for i := 0; i < n; {
		now := int64(time.Since(w.base))
		for ; i < n && gen+int64(i)*int64(wireGap) <= now; i++ {
			t0 := int64(time.Since(w.base))
			r.late[i] = t0 - gen - int64(i)*int64(wireGap)
			_, err := w.send.Send(w.plan.flowOf[i], w.plan.payload(buf, i))
			if timed {
				r.sendNanos += int64(time.Since(w.base)) - t0
			}
			if err != nil && sendErr == nil {
				sendErr = err
			}
		}
		if i < n {
			time.Sleep(wireTick)
		}
	}
	// Settle: stop once every packet is delivered, or once deliveries have
	// not moved for a quarter second.
	last, lastMove := uint64(0), time.Now()
	for deadline := time.Now().Add(wireSettle); time.Now().Before(deadline); {
		st := w.recv.Stats()
		if st.Delivered >= uint64(n) {
			break
		}
		if st.Delivered != last {
			last, lastMove = st.Delivered, time.Now()
		} else if time.Since(lastMove) > 250*time.Millisecond {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.cost = takeUsage().since(before)
	r.sender = w.send.Stats()
	r.receiver = w.recv.Stats()
	if err := w.close(); err != nil {
		return r, err
	}
	if sendErr != nil {
		return r, fmt.Errorf("send: %w", sendErr)
	}
	if err := w.ver.Finish(); err != nil {
		return r, err
	}
	if w.bad != nil {
		return r, w.bad
	}
	r.delivered = w.delivered
	for _, l := range w.lat {
		if l >= 0 {
			r.lat = append(r.lat, l)
		}
	}
	sortInt64(r.lat)
	sortInt64(r.late)
	return r, nil
}

func runWirePaced(o options) outcome {
	var out outcome
	floor := sleepFloor()
	out.note("sleep_floor_us", float64(floor)/1e3)
	out.note("link", "loopback, not a real link")
	out.note("rate_pps", wireRate)

	n := int(o.seconds / wireGap)
	if o.trace {
		n /= 2 // an untraced half, then a traced half
	}
	plan := newWirePlan(o.seed, n)

	setup, err := setupTime(wireSetupWarm, wireSetups, func() (time.Duration, error) {
		t0 := time.Now()
		w, err := openWire(plan, 0)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if err := w.close(); err != nil {
			return 0, fmt.Errorf("teardown: %w", err)
		}
		return d, nil
	})
	if err != nil {
		return out.fail(fmt.Errorf("wire_paced: setup: %w", err))
	}

	session := func(timed bool) (wireResult, error) {
		w, err := openWire(plan, n)
		if err != nil {
			return wireResult{}, err
		}
		r, err := pace(w, n, timed)
		out.attempted += uint64(r.sent)
		if err != nil {
			out.failed += uint64(r.sent)
			return r, err
		}
		out.failed += uint64(r.sent - r.delivered)
		return r, nil
	}

	r, err := session(false)
	if err != nil {
		return out.fail(fmt.Errorf("wire_paced: %w", err))
	}
	out.note("gen_late_p99_us", float64(percentile(r.late, 0.99))/1e3)
	out.note("due_p50_us", float64(percentile(r.lat, 0.50))/1e3)
	out.note("due_p99_us", float64(percentile(r.lat, 0.99))/1e3)
	if !o.trace {
		out.e2e(setup, float64(r.delivered)/r.cost.wall.Seconds(), r.cost.cpuUsPerPkt(uint64(r.sent)),
			r.cost, uint64(r.sent), float64(r.delivered)/float64(r.sent))
		return out
	}

	t, err := session(true)
	if err != nil {
		return out.fail(fmt.Errorf("wire_paced: traced: %w", err))
	}
	pkts := float64(t.sent)
	q := func(h *live.Histogram, p float64) float64 { return float64(h.Snapshot().Quantile(p)) }
	out.set("transport.send_ns_per_pkt", float64(t.sendNanos)/pkts, "ns")
	out.set("transport.encode_p50_ns", q(t.spans.Encode, 0.5), "ns")
	out.set("transport.socket_write_p50_ns", q(t.spans.SocketWrite, 0.5), "ns")
	out.set("transport.socket_write_p99_ns", q(t.spans.SocketWrite, 0.99), "ns")
	out.set("transport.reorder_p50_us", q(t.spans.Reorder, 0.5)/1e3, "us")
	out.set("transport.reorder_p99_us", q(t.spans.Reorder, 0.99)/1e3, "us")
	out.set("transport.e2e_p50_us", q(t.spans.E2E, 0.5)/1e3, "us")
	out.set("transport.e2e_p99_us", q(t.spans.E2E, 0.99)/1e3, "us")
	out.set("transport.due_p50_us", float64(percentile(t.lat, 0.50))/1e3, "us")
	out.set("transport.due_p99_us", float64(percentile(t.lat, 0.99))/1e3, "us")
	out.set("transport.sys_us_per_pkt", float64(t.cost.sys)/1e3/pkts, "us")
	out.set("transport.user_us_per_pkt", float64(t.cost.user)/1e3/pkts, "us")
	out.set("transport.ctxsw_per_pkt", float64(t.cost.ctxsw)/pkts, "count")
	out.set("transport.frames_per_pkt", float64(t.sender.Frames)/float64(t.sender.Packets), "count")
	out.set("transport.useful_frame_frac", float64(t.delivered)/float64(t.sender.Frames), "frac")
	out.set("transport.dup_drops_per_pkt", float64(t.receiver.DupDrops)/pkts, "count")
	out.set("runtime.gc_cpu_frac", t.cost.gcFrac(), "frac")
	out.set("bench.gen_late_p99_us", float64(percentile(t.late, 0.99))/1e3, "us")
	// The rate is fixed, so tracing shows up as CPU, not wall time.
	out.set("bench.trace_overhead_frac", t.cost.cpuUsPerPkt(uint64(t.sent))/r.cost.cpuUsPerPkt(uint64(r.sent))-1, "frac")
	return out
}
