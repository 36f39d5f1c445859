package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/obs"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
)

// stampPayload fills buf with a payload that names its (flow, seq): the
// two IDs, then filler derived from both. Lengths vary with seq so
// recycled buffers are both reused and regrown.
func stampPayload(buf []byte, flow, seq uint64) []byte {
	n := 16 + int(seq%97)
	buf = buf[:n]
	binary.LittleEndian.PutUint64(buf, flow)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	for i := 16; i < n; i++ {
		buf[i] = byte(flow*31 + seq*7 + uint64(i))
	}
	return buf
}

// TestRecycledPacketsNeverAlias checks the borrow contract from the
// receiver's side: a delivered packet and its payload buffer are reused
// for later frames, so a packet still waiting in the reorder buffer must
// never share memory with one already handed back. Round-robin over three
// paths with one path delayed keeps the reorder buffer occupied; every
// delivery must carry the payload stamped for its (flow, seq), and the
// callback scribbles over each payload it borrowed so that any aliasing
// surfaces as a mismatch later.
func TestRecycledPacketsNeverAlias(t *testing.T) {
	const flows, packets = 4, 3000
	var mu sync.Mutex
	var mismatches, delivered int
	var firstBad string
	verifier := NewVerifier()
	want := make([]byte, 0, 16+97)
	recv, err := Listen(ReceiverConfig{
		Addrs:          []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"},
		ReorderTimeout: 50 * time.Millisecond, // well above the injected delay: no timeouts
		Verifier:       verifier,
		Deliver: func(p *packet.Packet) {
			mu.Lock()
			defer mu.Unlock()
			delivered++
			if exp := stampPayload(want, p.FlowID, p.Seq); !bytes.Equal(p.Data, exp) {
				if mismatches == 0 {
					firstBad = string(p.Data)
				}
				mismatches++
			}
			for i := range p.Data {
				p.Data[i] = 0xff
			}
		},
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var paths []PathConfig
	for _, a := range recv.Addrs() {
		paths = append(paths, PathConfig{RemoteAddr: a})
	}
	send, err := Dial(SenderConfig{
		Paths:     paths,
		Scheduler: SchedRoundRobin,
		Health:    wireHealth(),
		Verifier:  verifier,
		Impairer:  NewRandomImpairer(ImpairConfig{Path: 1, DelayFrac: 0.5, Delay: 2 * time.Millisecond, Seed: 5}),
	})
	if err != nil {
		recv.Close()
		t.Fatalf("Dial: %v", err)
	}
	buf := make([]byte, 16+97)
	next := make([]uint64, flows)
	for i := 0; i < packets; i++ {
		flow := uint64(i % flows)
		seq, err := send.Send(flow, stampPayload(buf, flow, next[flow]))
		if err != nil {
			t.Fatalf("Send: %v", err)
		}
		if seq != next[flow] {
			t.Fatalf("flow %d: sender assigned seq %d, stamped %d", flow, seq, next[flow])
		}
		next[flow]++
		if i%32 == 31 {
			time.Sleep(time.Millisecond) // stay well inside the socket buffers
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && recv.Stats().Delivered < packets {
		time.Sleep(5 * time.Millisecond)
	}
	if err := send.Close(); err != nil {
		t.Fatalf("sender close: %v", err)
	}
	if err := recv.Close(); err != nil {
		t.Fatalf("receiver close: %v", err)
	}
	st := recv.Stats()
	mu.Lock()
	defer mu.Unlock()
	if mismatches != 0 {
		t.Fatalf("%d of %d deliveries carried another packet's payload (first: %x)", mismatches, delivered, firstBad)
	}
	if msgs, n := verifier.Violations(); n != 0 {
		t.Fatalf("invariants: %d violation(s): %v", n, msgs)
	}
	if st.Delivered != packets {
		t.Fatalf("delivered %d of %d (reorder %+v)", st.Delivered, packets, st.Reorder)
	}
	if st.Reorder.OutOfOrder == 0 || st.Reorder.MaxOccupancy < 2 {
		t.Fatalf("the delayed path never held the reorder buffer: %+v", st.Reorder)
	}
}

// Every delivery is stamped with the wall time of its release: exactly
// the release time the receiver's flight recorder logs for it, and never
// before the frame was read or sent. A lossy path makes gap timers
// release part of the traffic; the reorder buffer's own clock stamps
// those with the timer's due time instead.
func TestDeliveredStampIsReleaseTime(t *testing.T) {
	type key struct{ flow, seq uint64 }
	stamps := make(map[key]sim.Time)
	var early int
	rt := obs.NewWireRecorder(obs.WireReceiver, 1<<16, 1)
	rep, err := RunLoopback(LoopbackConfig{
		Paths:          2,
		Scheduler:      SchedRoundRobin,
		Flows:          2,
		Packets:        2000,
		Health:         wireHealth(),
		ReorderTimeout: 2 * time.Millisecond,
		Impairer:       NewRandomImpairer(ImpairConfig{Path: 1, DropFrac: 0.05, Seed: 3}),
		ReceiverTrace:  rt,
		OnDeliver: func(p *packet.Packet) { // driver goroutine only
			stamps[key{p.FlowID, p.Seq}] = p.Delivered
			if p.Delivered < p.Done || p.Delivered < p.Ingress {
				early++
			}
		},
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if early != 0 {
		t.Fatalf("%d deliveries stamped before their frame was read or sent", early)
	}
	if rep.Receiver.Reorder.TimeoutFires == 0 {
		t.Fatalf("no gap timer released a packet (%s)", reorderDiag(rep))
	}
	checked := 0
	for _, ev := range rt.Events() {
		if ev.Kind != obs.WireDeliver {
			continue
		}
		checked++
		if got := stamps[key{ev.FlowID, ev.Seq}]; got != sim.Time(ev.B) {
			t.Fatalf("flow %d seq %d: Delivered %d, released at %d", ev.FlowID, ev.Seq, got, ev.B)
		}
	}
	if checked != len(stamps) {
		t.Fatalf("recorder logged %d of %d deliveries", checked, len(stamps))
	}
}

// udpSinks binds n loopback sockets that read and discard datagrams
// without allocating, closed when the benchmark ends.
func udpSinks(b *testing.B, n int) []PathConfig {
	b.Helper()
	var paths []PathConfig
	var wg sync.WaitGroup
	b.Cleanup(wg.Wait) // cleanups run last-in first-out: after every Close below
	for i := 0; i < n; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Fatalf("sink: %v", err)
		}
		paths = append(paths, PathConfig{RemoteAddr: conn.LocalAddr().String()})
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, HeaderLen+MaxPayload)
			for {
				if _, err := conn.Read(buf); err != nil {
					return // closed
				}
			}
		}()
		b.Cleanup(func() { conn.Close() })
	}
	return paths
}

// BenchmarkSenderSend is one hedged Send on the no-impairer path:
// schedule, two frame encodes and two socket writes. Health is disabled
// because the sinks never ack. Must not allocate.
func BenchmarkSenderSend(b *testing.B) {
	send, err := Dial(SenderConfig{
		Paths:     udpSinks(b, 2),
		Scheduler: SchedHedge,
		Health:    core.HealthConfig{Disable: true},
	})
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer send.Close()
	payload := make([]byte, 256)
	for i := 0; i < 64; i++ { // flow births: the per-flow seq map fills here
		if _, err := send.Send(uint64(i%8), payload); err != nil {
			b.Fatalf("Send: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := send.Send(uint64(i%8), payload); err != nil {
			b.Fatalf("Send: %v", err)
		}
	}
}
