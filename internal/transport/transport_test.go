package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
)

// wireHealth is a HealthConfig scaled to loopback RTTs: tolerant enough
// that scheduler jitter never quarantines a healthy path, fast enough that
// tests observing real flaps finish quickly.
func wireHealth() core.HealthConfig {
	return core.HealthConfig{
		SuspectTimeout:    sim.Duration(200 * time.Millisecond),
		QuarantineBackoff: sim.Duration(50 * time.Millisecond),
		ProbeSuccesses:    4,
		DropWindowMin:     64,
	}
}

// reorderDiag names what the receiver's reorder stage did with packets
// that were sent but not delivered. A reader stall longer than the gap
// timeout turns packets that did arrive into late drops; these counters
// tell that apart from loss on the wire.
func reorderDiag(rep *LoopbackReport) string {
	ro := rep.Receiver.Reorder
	return fmt.Sprintf("lost %d; reorder: late drops %d, gap-skipped seqs %d, timeout fires %d",
		rep.Lost, ro.LateDrops, ro.GapSkipped, ro.TimeoutFires)
}

func TestLoopbackHedgedInOrder(t *testing.T) {
	rep, err := RunLoopback(LoopbackConfig{
		Paths:     2,
		Scheduler: SchedHedge,
		Flows:     4,
		Payload:   128,
		Packets:   5000,
		Health:    wireHealth(),
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("invariants: %v\nall: %v", err, rep.Violations)
	}
	if rep.Delivered != rep.Packets {
		t.Fatalf("delivered %d of %d on a clean loopback wire", rep.Delivered, rep.Packets)
	}
	// Hedging must have used both paths and the dedup absorbed the copies.
	if rep.Frames < 2*rep.Packets {
		t.Fatalf("hedge sent %d frames for %d packets, want 2x", rep.Frames, rep.Packets)
	}
	for _, p := range rep.Sender.Paths {
		if p.Sent == 0 {
			t.Fatalf("path %d idle under hedged duplication: %+v", p.Path, rep.Sender.Paths)
		}
	}
	if rep.DupDrops == 0 {
		t.Fatalf("hedged run absorbed no duplicate copies (dedup bypassed?)")
	}
}

func TestLoopbackRoundRobinAndLeastInflight(t *testing.T) {
	for _, sched := range []SchedulerName{SchedRoundRobin, SchedLeastInflight} {
		rep, err := RunLoopback(LoopbackConfig{
			Paths:     3,
			Scheduler: sched,
			Flows:     2,
			Packets:   2000,
			Health:    wireHealth(),
		})
		if err != nil {
			t.Fatalf("%s: RunLoopback: %v", sched, err)
		}
		if err := rep.Verify(); err != nil {
			t.Fatalf("%s: invariants: %v (%s)", sched, err, reorderDiag(rep))
		}
		if rep.Delivered != rep.Packets {
			t.Fatalf("%s: delivered %d of %d (%s)", sched, rep.Delivered, rep.Packets, reorderDiag(rep))
		}
		if rep.Frames != rep.Packets {
			t.Fatalf("%s: single-copy scheduler sent %d frames for %d packets", sched, rep.Frames, rep.Packets)
		}
	}
}

// Wire-level duplication (same frame twice on one path) must be absorbed by
// the per-path wire dedup without inflating delivery or ack counts.
func TestLoopbackWireDuplication(t *testing.T) {
	rep, err := RunLoopback(LoopbackConfig{
		Paths:     2,
		Scheduler: SchedRoundRobin,
		Packets:   3000,
		Health:    wireHealth(),
		Impairer:  NewRandomImpairer(ImpairConfig{Path: -1, DupFrac: 0.3, Seed: 7}),
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if rep.WireDups == 0 {
		t.Fatalf("30%% wire duplication produced no wire dups")
	}
	if rep.Delivered != rep.Packets {
		t.Fatalf("delivered %d of %d under duplication (loss-free impairment)", rep.Delivered, rep.Packets)
	}
}

// A path with heavy injected loss must flap (quarantine at least once)
// while hedging keeps end-to-end delivery complete; after the impairment
// window the path may recover via canaries.
func TestLoopbackLossFlapsPathHealth(t *testing.T) {
	impair := NewRandomImpairer(ImpairConfig{Path: 1, DropFrac: 0.9, Seed: 3})
	health := wireHealth()
	health.SuspectTimeout = sim.Duration(50 * time.Millisecond)
	health.DropWindowMin = 32
	rep, err := RunLoopback(LoopbackConfig{
		Paths:     2,
		Scheduler: SchedHedge,
		Flows:     2,
		Packets:   8000,
		Health:    health,
		Impairer:  impair,
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("invariants: %v (%s)", err, reorderDiag(rep))
	}
	dropped, _, _ := impair.Counts()
	if dropped == 0 {
		t.Fatalf("impairer injected no drops")
	}
	// Hedging means every packet also rode the clean path 0.
	if rep.Delivered != rep.Packets {
		t.Fatalf("delivered %d of %d despite a clean hedge path (%s)", rep.Delivered, rep.Packets, reorderDiag(rep))
	}
	if q := rep.Sender.Paths[1].Quarantines; q == 0 {
		t.Fatalf("path 1 at 90%% loss never quarantined: %+v", rep.Sender.Paths[1])
	}
	if rep.Sender.Paths[0].Quarantines != 0 {
		t.Fatalf("clean path 0 was quarantined: %+v", rep.Sender.Paths[0])
	}
}

// Echo-back frames must produce RTT samples at the sender.
func TestLoopbackEchoRTT(t *testing.T) {
	var mu sync.Mutex
	var samples int
	recvAddrs := make([]string, 2)
	for i := range recvAddrs {
		recvAddrs[i] = "127.0.0.1:0"
	}
	recv, err := Listen(ReceiverConfig{Addrs: recvAddrs, EchoBack: true})
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
		OnEcho: func(path int, h Header, rtt time.Duration) {
			mu.Lock()
			if rtt > 0 {
				samples++
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 200; i++ {
		if _, err := send.Send(1, []byte("ping")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := samples
		mu.Unlock()
		if n > 100 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := send.Close(); err != nil {
		t.Fatalf("sender close: %v", err)
	}
	if err := recv.Close(); err != nil {
		t.Fatalf("receiver close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if samples == 0 {
		t.Fatalf("no RTT samples from echo-back")
	}
}

// The receiver must tolerate garbage datagrams without crashing or
// delivering anything.
func TestReceiverRejectsGarbage(t *testing.T) {
	recv, err := Listen(ReceiverConfig{Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer recv.Close()

	conn, err := net.Dial("udp", recv.Addrs()[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	for _, b := range [][]byte{
		[]byte("not a frame"),
		make([]byte, HeaderLen-1),
		make([]byte, HeaderLen+10), // zero magic
	} {
		if _, err := conn.Write(b); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		st := recv.Stats()
		if len(st.Paths) == 1 && st.Paths[0].BadFrames >= 3 {
			if st.Delivered != 0 {
				t.Fatalf("garbage was delivered: %+v", st)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("bad frames never counted: %+v", recv.Stats())
}

// Deliver callbacks observe packets with per-flow ordered seqs and intact
// payload bytes.
func TestLoopbackPayloadIntegrity(t *testing.T) {
	var mu sync.Mutex
	bad := 0
	rep, err := RunLoopback(LoopbackConfig{
		Paths:   2,
		Packets: 1000,
		Payload: 64,
		Health:  wireHealth(),
		OnDeliver: func(p *packet.Packet) {
			mu.Lock()
			defer mu.Unlock()
			if len(p.Data) != 64 {
				bad++
				return
			}
			for i, b := range p.Data {
				if b != byte(i) {
					bad++
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if bad != 0 {
		t.Fatalf("%d packets arrived corrupted", bad)
	}
}
