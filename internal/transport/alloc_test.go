//go:build !race

// The race detector allocates on its own account, so this guard only runs
// in normal builds.

package transport

import (
	"runtime"
	"testing"
)

// maxMallocsPerPacket bounds heap allocations per sent packet for a whole
// hedged loopback run, setup and teardown included. The steady-state data
// path allocates nothing per frame; what the budget absorbs is the
// endpoints' setup, the recycled-packet pool filling up to the window, and
// the drain loop's stats snapshots.
const maxMallocsPerPacket = 0.5

// TestLoopbackAllocsPerPacket holds the wire path to its allocation
// budget: 2 hedged paths, so every packet is two frames on the wire and
// one dedup verdict per frame. Not parallel: runtime.MemStats counts the
// whole process.
func TestLoopbackAllocsPerPacket(t *testing.T) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := RunLoopback(LoopbackConfig{
		Paths:     2,
		Scheduler: SchedHedge,
		Flows:     8,
		Payload:   256,
		Packets:   6000,
		Health:    wireHealth(),
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if rep.Frames < 2*rep.Packets {
		t.Fatalf("hedge sent %d frames for %d packets, want 2x", rep.Frames, rep.Packets)
	}
	mallocs := after.Mallocs - before.Mallocs
	per := float64(mallocs) / float64(rep.Packets)
	t.Logf("%d mallocs, %d bytes for %d packets (%d frames): %.3f mallocs/packet",
		mallocs, after.TotalAlloc-before.TotalAlloc, rep.Packets, rep.Frames, per)
	if per > maxMallocsPerPacket {
		t.Fatalf("%.3f mallocs per sent packet, budget %.1f", per, maxMallocsPerPacket)
	}
}
