//go:build !race

// The race detector allocates on its own account, so this guard only runs
// in normal builds.

package experiment

import (
	"runtime"
	"testing"

	"mpdp/internal/sim"
)

// maxMallocsPerPacket bounds heap allocations per offered packet for a
// whole interfered mpdp run, setup included. What remains per packet is the
// Packet struct, its frame and the clones of duplicated copies.
const maxMallocsPerPacket = 3.0

// TestSimInterferedAllocsPerPacket holds the simulator's data path to its
// allocation budget on the benchmark's sim_interfered configuration: mpdp
// over 4 paths, a 3-NF chain, utilization 0.7 and moderate interference,
// with the invariant checker armed. Not parallel: runtime.MemStats counts
// the whole process.
func TestSimInterferedAllocsPerPacket(t *testing.T) {
	cfg := RunConfig{
		Seed:         1,
		NumPaths:     4,
		ChainLen:     3,
		Policy:       "mpdp",
		Util:         0.7,
		Arrival:      "poisson",
		SizeDist:     "imix",
		Flows:        64,
		FlowSkew:     1.05,
		Interference: "moderate",
		Duration:     25 * sim.Millisecond,
		Verify:       true,
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered < 10000 {
		t.Fatalf("only %d packets offered; the run is too short to measure", res.Offered)
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(res.Offered)
	t.Logf("%.3f mallocs per offered packet over %d packets", perPkt, res.Offered)
	if perPkt > maxMallocsPerPacket {
		t.Fatalf("%.3f mallocs per offered packet, budget %.1f", perPkt, maxMallocsPerPacket)
	}
}
