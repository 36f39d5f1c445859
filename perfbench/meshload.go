package main

import (
	"fmt"
	"runtime"
	"time"

	"mpdp/internal/invariant"
	"mpdp/internal/mesh"
	"mpdp/internal/transport"
)

// mesh_drain: four gateways and one steering client over loopback UDP,
// closed loop (a 256-packet window), with node index 1 drained gracefully
// at half-run. A run is meshSegments back-to-back RunMesh calls, each with
// its own drain, and reports medians over them. mesh.RunMesh takes no
// seed: its flows and payloads are fixed by the harness, so the seed only
// labels the run.
const (
	meshNodes      = 4
	meshPaths      = 2
	meshFlows      = 32
	meshPayload    = 256
	meshDrainNode  = 1
	meshSetupWarm  = 10
	meshSetups     = 151
	meshSegments   = 3
	meshGossip     = 25 * time.Millisecond
	meshReorder    = 5 * time.Millisecond
	meshHandoffMax = 10 * time.Second // a graceful drain must never reach the timeout escape
	meshClientID   = 1000
)

func meshConfig(d time.Duration) mesh.MeshConfig {
	return mesh.MeshConfig{
		Nodes:          meshNodes,
		PathsPerNode:   meshPaths,
		Scheduler:      transport.SchedHedge,
		Flows:          meshFlows,
		Payload:        meshPayload,
		Duration:       d,
		DrainNode:      meshDrainNode,
		DrainAfter:     0.5,
		HandoffTimeout: meshHandoffMax,
		Health:         wireHealth,
		NodeHealth:     wireHealth,
	}
}

// meshSetup builds and starts the same nodes and client RunMesh does, from
// the public constructors, then closes them; it returns the build time.
func meshSetup() (time.Duration, error) {
	t0 := time.Now()
	checker := invariant.NewStream()
	var nodes []*mesh.Node
	closeAll := func() {
		for _, n := range nodes {
			_ = n.Close() // teardown of a probe that carried no traffic
		}
	}
	defer closeAll()
	var seed []mesh.Member
	for i := 0; i < meshNodes; i++ {
		n, err := mesh.NewNode(mesh.NodeConfig{
			ID:             mesh.NodeID(i + 1),
			DataPaths:      meshPaths,
			GossipInterval: meshGossip,
			ReorderTimeout: meshReorder,
			HandoffTimeout: meshHandoffMax,
			Health:         wireHealth,
			Checker:        checker,
		})
		if err != nil {
			return 0, err
		}
		nodes = append(nodes, n)
		seed = append(seed, n.Member())
	}
	client, err := mesh.NewClient(mesh.ClientConfig{
		ID: mesh.NodeID(meshClientID), Scheduler: transport.SchedHedge,
		Health: wireHealth, Checker: checker,
	})
	if err != nil {
		return 0, err
	}
	defer func() { _ = client.Close() }()
	seed = append(seed, client.Member())
	for _, n := range nodes {
		n.Start(seed)
	}
	if err := client.Start(seed); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func runMeshDrain(o options) outcome {
	var out outcome
	out.note("link", "loopback, not a real link")
	setup, err := setupTime(meshSetupWarm, meshSetups, meshSetup)
	if err != nil {
		return out.fail(fmt.Errorf("mesh_drain: setup: %w", err))
	}

	var total cost
	var sum mesh.MeshReport
	var pps, cpu, p99, preP99, drain []float64
	for i := 0; i < meshSegments; i++ {
		runtime.GC()
		before := takeUsage()
		rep, err := mesh.RunMesh(meshConfig(o.seconds / meshSegments))
		c := takeUsage().since(before)
		if rep != nil {
			out.attempted += rep.Packets
			if rep.Delivered < rep.Packets {
				out.failed += rep.Packets - rep.Delivered
			}
		}
		if err == nil {
			err = rep.Verify()
		}
		if err == nil && rep.HandoffFlows == 0 {
			err = fmt.Errorf("the drain moved no flow state, so the handoff was not measured")
		}
		if err != nil {
			out.failed = out.attempted
			return out.fail(fmt.Errorf("mesh_drain: segment %d: %w", i, err))
		}
		total.add(c)
		pps = append(pps, float64(rep.Delivered)/rep.Elapsed.Seconds())
		cpu = append(cpu, c.cpuUsPerPkt(rep.Packets))
		p99 = append(p99, float64(rep.P99OverallNanos)/1e3)
		preP99 = append(preP99, float64(rep.P99PreDrainNanos)/1e3)
		drain = append(drain, float64(rep.DrainNanos)/1e6)
		sum.Packets += rep.Packets
		sum.Delivered += rep.Delivered
		sum.HandoffFlows += rep.HandoffFlows
		sum.HandoffRecords += rep.HandoffRecords
		sum.HandoffTimeouts += rep.HandoffTimeouts
		sum.Forwarded += rep.Forwarded
		sum.StaleSteers += rep.StaleSteers
		sum.OverflowDrops += rep.OverflowDrops
		sum.Resteers += rep.Resteers
	}
	out.note("p99_us", median(p99))
	out.note("drain_ms", median(drain))
	out.note("pkts_per_s_iqr_frac", relSpread(pps))

	if !o.trace {
		out.e2e(setup, median(pps), median(cpu), total, sum.Packets,
			float64(sum.Delivered)/float64(sum.Packets))
		return out
	}
	// Latencies are medians over the segments; counts are per drain.
	perDrain := func(n uint64) float64 { return float64(n) / meshSegments }
	out.set("mesh.p99_us", median(p99), "us")
	out.set("mesh.p99_pre_drain_us", median(preP99), "us")
	out.set("mesh.drain_ms", median(drain), "ms")
	out.set("mesh.handoff_flows", perDrain(sum.HandoffFlows), "count")
	out.set("mesh.handoff_records", perDrain(sum.HandoffRecords), "count")
	out.set("mesh.handoff_timeouts", perDrain(sum.HandoffTimeouts), "count")
	out.set("mesh.forwarded_per_pkt", float64(sum.Forwarded)/float64(sum.Packets), "count")
	out.set("mesh.stale_steers", perDrain(sum.StaleSteers), "count")
	out.set("mesh.overflow_drops", perDrain(sum.OverflowDrops), "count")
	out.set("mesh.resteers", perDrain(sum.Resteers), "count")
	out.set("runtime.gc_cpu_frac", total.gcFrac(), "frac")
	// RunMesh exposes no layer boundary to wrap, so the traced run is the
	// untraced run: bench.trace_overhead_frac stays 0.
	return out
}
