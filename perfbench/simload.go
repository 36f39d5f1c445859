package main

import (
	"fmt"
	"runtime"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/experiment"
	"mpdp/internal/invariant"
	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/stats"
	"mpdp/internal/vnet"
	"mpdp/internal/workload"
	"mpdp/internal/xrand"
)

// sim_interfered: the virtual-time simulator under moderate interference.
// Each run cycles through simCycle sub-seeds derived from --seed, one
// experiment.Run of simHorizon virtual time each. The first cycle fixes the
// virtual results; every later repetition of a sub-seed must reproduce
// them exactly.
const (
	simPaths   = 4
	simChain   = 3
	simUtil    = 0.7
	simFlows   = 64
	simSkew    = 1.05
	simHorizon = 25 * sim.Millisecond
	simCycle   = 16
	// The drain windows experiment.Run appends after the traffic horizon.
	simDrain = 20 * sim.Millisecond
	simFlush = 25 * sim.Millisecond
	// experiment.Run's dispatch overhead and RNG stream constant, and core's
	// default lane queue capacity, repeated here so the traced rebuild
	// draws the same random numbers and queues the same packets.
	simDispatch = 150 * sim.Nanosecond
	simRNGSalt  = 0x9e3779b97f4a7c15
	simQueueCap = 512
)

func simSubSeed(seed uint64, k int) uint64 { return seed*1_000_003 + uint64(k) }

func simRunConfig(seed uint64) experiment.RunConfig {
	return experiment.RunConfig{
		Seed:         seed,
		NumPaths:     simPaths,
		ChainLen:     simChain,
		Policy:       "mpdp",
		Util:         simUtil,
		Arrival:      "poisson",
		SizeDist:     "imix",
		Flows:        simFlows,
		FlowSkew:     simSkew,
		Interference: "moderate",
		Duration:     simHorizon,
		Verify:       true,
	}
}

// simOutput is the part of a run that is a pure function of its seed.
type simOutput struct {
	Offered, Delivered, Lost uint64
	P50, P99                 int64 // virtual ns, post-warmup
	QueueWaitP99, ServiceP99 float64
	Reorder                  core.ReorderStats
}

func fromRunResult(r experiment.RunResult) simOutput {
	return simOutput{
		Offered: r.Offered, Delivered: r.Delivered, Lost: r.Lost,
		P50: r.Latency.P50, P99: r.Latency.P99,
		QueueWaitP99: r.QueueWaitP99, ServiceP99: r.ServiceP99,
		Reorder: r.Reorder,
	}
}

func runSimInterfered(o options) outcome {
	if o.trace {
		return traceSim(o)
	}
	var out outcome
	want := make([]simOutput, simCycle)
	var pps, cpu, setups []float64
	var first cost // the first cycle: the same sub-seeds in every run of a seed
	start := time.Now()
	for rep := 0; rep < simCycle || time.Since(start) < o.seconds; rep++ {
		k := rep % simCycle
		seed := simSubSeed(o.seed, k)

		t0 := time.Now()
		if _, err := buildSim(seed, nil); err != nil {
			return out.fail(err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		runtime.GC()
		before := takeUsage()
		res, err := experiment.Run(simRunConfig(seed))
		c := takeUsage().since(before)
		if err != nil {
			out.failed += res.Offered
			return out.fail(fmt.Errorf("sim_interfered: sub-seed %d: %w", seed, err))
		}
		got := fromRunResult(res)
		out.attempted += got.Offered
		if rep < simCycle {
			want[k] = got
			first.add(c)
		} else if got != want[k] {
			out.failed += got.Offered
			return out.fail(fmt.Errorf("sim_interfered: sub-seed %d is not deterministic: %+v then %+v", seed, want[k], got))
		}
		pps = append(pps, float64(got.Offered)/c.wall.Seconds())
		cpu = append(cpu, c.cpuUsPerPkt(got.Offered))
	}
	var offered, delivered uint64
	for _, w := range want {
		offered += w.Offered
		delivered += w.Delivered
	}
	out.note("pkts_per_s_iqr_frac", relSpread(pps))
	out.e2e(median(setups), median(pps), median(cpu), first, offered, float64(delivered)/float64(offered))
	return out
}

// traceSim alternates an untraced experiment.Run with a traced rebuild of
// the same pipeline for each sub-seed. The rebuild must reproduce the
// untraced run exactly; its timing wrappers then attribute host time to
// layers. Host times are averaged over every traced run; the simulator's
// own counts and virtual latencies come from the first cycle of sub-seeds,
// so they repeat exactly for a seed.
func traceSim(o options) outcome {
	var out outcome
	tr := newTracer()
	var overhead []float64
	var traced cost
	var all, cycle simCounts
	var cyc []simOutput
	start := time.Now()
	for rep := 0; rep < simCycle || time.Since(start) < o.seconds; rep++ {
		seed := simSubSeed(o.seed, rep%simCycle)
		runtime.GC()
		t0 := time.Now()
		res, err := experiment.Run(simRunConfig(seed))
		plain := time.Since(t0)
		if err != nil {
			return out.fail(fmt.Errorf("sim_interfered: sub-seed %d: %w", seed, err))
		}
		want := fromRunResult(res)

		runtime.GC()
		before := takeUsage()
		p, err := buildSim(seed, tr)
		if err != nil {
			return out.fail(err)
		}
		got, err := p.run()
		c := takeUsage().since(before)
		out.attempted += want.Offered
		if err != nil {
			out.failed += want.Offered
			return out.fail(fmt.Errorf("sim_interfered: traced sub-seed %d: %w", seed, err))
		}
		if got != want {
			out.failed += want.Offered
			return out.fail(fmt.Errorf("sim_interfered: traced rebuild of sub-seed %d diverged from experiment.Run:\n  want %+v\n  got  %+v", seed, want, got))
		}
		traced.add(c)
		overhead = append(overhead, c.wall.Seconds()/plain.Seconds()-1)
		n := p.counts()
		all.add(n)
		if rep < simCycle {
			cycle.add(n)
			cyc = append(cyc, got)
		}
	}

	perPkt := func(l layer) float64 { return float64(tr.self[l]) / float64(all.offered) }
	mean := func(f func(simOutput) float64) float64 {
		var sum float64
		for _, c := range cyc {
			sum += f(c)
		}
		return sum / float64(len(cyc))
	}
	var inOrder, ooo uint64
	var maxOcc int
	for _, c := range cyc {
		inOrder += c.Reorder.InOrder
		ooo += c.Reorder.OutOfOrder
		maxOcc = max(maxOcc, c.Reorder.MaxOccupancy)
	}
	ns := "ns"
	out.set("workload.ns_per_pkt", perPkt(layerWorkload), ns)
	out.set("workload.allocs_per_pkt", nextPacketAllocs(o.seed), "count")
	out.set("core.policy_ns_per_pkt", perPkt(layerPolicy), ns)
	out.set("core.ingress_self_ns_per_pkt", perPkt(layerIngress), ns)
	out.set("nf.ns_per_copy", float64(tr.self[layerNF])/float64(all.served), ns)
	out.set("nf.classify_ns_per_pkt", perPkt(layerClassify), ns)
	out.set("vnet.qdisc_ns_per_copy", float64(tr.self[layerQdisc])/float64(all.copies), ns)
	out.set("vnet.queue_wait_p99_us", mean(func(c simOutput) float64 { return c.QueueWaitP99 })/1e3, "us")
	out.set("vnet.service_p99_us", mean(func(c simOutput) float64 { return c.ServiceP99 })/1e3, "us")
	out.set("sim.self_ns_per_pkt", perPkt(layerSim), ns)
	out.set("sim.events_per_pkt", float64(cycle.fired)/float64(cycle.offered), "count")
	out.set("sim.p50_virtual_us", mean(func(c simOutput) float64 { return float64(c.P50) })/1e3, "us")
	out.set("sim.p99_virtual_us", mean(func(c simOutput) float64 { return float64(c.P99) })/1e3, "us")
	out.set("core.copies_per_pkt", float64(cycle.copies)/float64(cycle.offered), "count")
	out.set("core.reorder_ooo_frac", float64(ooo)/float64(inOrder+ooo), "frac")
	out.set("core.reorder_max_occupancy", float64(maxOcc), "count")
	out.set("runtime.gc_cpu_frac", traced.gcFrac(), "frac")
	out.set("bench.trace_overhead_frac", median(overhead), "frac")
	return out
}

// simCounts are the per-run counts the per-layer metrics divide by.
type simCounts struct {
	offered, copies, served, fired uint64
}

func (c *simCounts) add(o simCounts) {
	c.offered += o.offered
	c.copies += o.copies
	c.served += o.served
	c.fired += o.fired
}

// simPipeline is experiment.Run's pipeline for simRunConfig, rebuilt from
// the same public constructors in the same order, so that it draws the
// same random numbers and schedules the same events. With a tracer it
// wraps every layer boundary in a timing span.
type simPipeline struct {
	s        *sim.Simulator
	dp       *core.DataPlane
	chk      *invariant.Checker
	measured *stats.Hist
	tr       *tracer
	start    func()
}

func buildSim(seed uint64, tr *tracer) (*simPipeline, error) {
	rng := xrand.New(seed ^ simRNGSalt)
	sizes := workload.IMIX{Rng: rng.Split()}
	meanCost := workload.MeanServiceCost(nf.PresetChain(simChain), sizes, rng.Split(), 300) + simDispatch
	meanGap := sim.Duration(float64(meanCost) / (simUtil * simPaths))
	if meanGap < 1 {
		meanGap = 1
	}
	arrival := workload.NewPoisson(rng.Split(), meanGap)
	traffic := workload.NewTraffic(workload.TrafficConfig{
		Arrival: arrival, Size: sizes,
		Flows: simFlows, FlowSkew: simSkew,
		Rng: rng.Split(),
	})
	policy, err := experiment.NewPolicy("mpdp", rng.Split(), experiment.PolicyParams{})
	if err != nil {
		return nil, err
	}

	p := &simPipeline{s: sim.New(), measured: stats.NewHist(), tr: tr}
	cfg := core.Config{
		NumPaths:     simPaths,
		ChainFactory: func(int) *nf.Chain { return nf.PresetChain(simChain) },
		Policy:       policy,
		JitterSigma:  0.15,
		Interference: vnet.DefaultInterferenceConfig(),
		Seed:         seed,
	}
	if tr != nil {
		cfg.Policy = timedPolicy{policy, tr}
		cfg.ChainFactory = func(int) *nf.Chain {
			ch := nf.PresetChain(simChain)
			var els []nf.Element
			for _, e := range ch.Elements() {
				els = append(els, timedElement{e, tr})
			}
			return nf.NewChain(ch.Name(), els...)
		}
		cfg.QdiscFor = func(int) vnet.Qdisc { return timedQdisc{vnet.NewFIFO(simQueueCap), tr} }
	}
	warmup := simHorizon / 10
	p.dp = core.New(p.s, cfg, func(pk *packet.Packet) {
		if pk.Delivered >= warmup {
			p.measured.Record(int64(pk.Latency()))
		}
	})
	p.chk = invariant.Attach(p.dp, invariant.Options{CheckOrder: true})

	cls := nf.PresetClassifier()
	ingress := func(pk *packet.Packet) {
		p.span(layerClassify)
		cls.Process(p.s.Now(), pk)
		p.end()
		p.span(layerIngress)
		p.dp.Ingress(pk)
		p.end()
	}
	// workload.Traffic.Run, with the arrival draw and NextPacket timed.
	var schedule func()
	schedule = func() {
		p.span(layerWorkload)
		gap := arrival.Next()
		p.end()
		if p.s.Now()+gap > simHorizon {
			return
		}
		p.s.Schedule(gap, func() {
			p.span(layerWorkload)
			pk := traffic.NextPacket()
			p.end()
			ingress(pk)
			schedule()
		})
	}
	p.start = schedule
	return p, nil
}

func (p *simPipeline) span(l layer) {
	if p.tr != nil {
		p.tr.enter(l)
	}
}

func (p *simPipeline) end() {
	if p.tr != nil {
		p.tr.exit()
	}
}

// run drives the pipeline exactly as experiment.Run does and returns its
// seed-determined output; the invariant checker's verdict is the error.
func (p *simPipeline) run() (simOutput, error) {
	p.start()
	p.span(layerSim)
	p.s.RunUntil(simHorizon + simDrain)
	p.dp.Flush()
	p.s.RunUntil(simHorizon + simFlush)
	p.end()
	if err := p.chk.Finish(true); err != nil {
		return simOutput{}, err
	}
	m := p.dp.Metrics()
	sum := p.measured.Summarize()
	return simOutput{
		Offered: m.Offered(), Delivered: m.Delivered(), Lost: m.TotalLost(),
		P50: sum.P50, P99: sum.P99,
		QueueWaitP99: float64(m.QueueWait.Percentile(0.99)),
		ServiceP99:   float64(m.ServiceTime.Percentile(0.99)),
		Reorder:      p.dp.ReorderStats(),
	}, nil
}

func (p *simPipeline) counts() simCounts {
	m := p.dp.Metrics()
	c := simCounts{offered: m.Offered(), copies: m.CopiesSent(), fired: p.s.Fired()}
	for _, ps := range p.dp.Paths() {
		c.served += ps.Lane.Stats().Served
	}
	return c
}

// nextPacketAllocs counts heap allocations per Traffic.NextPacket on a
// generator configured like the workload's, outside the simulator.
func nextPacketAllocs(seed uint64) float64 {
	rng := xrand.New(seed)
	t := workload.NewTraffic(workload.TrafficConfig{
		Arrival: workload.NewPoisson(rng.Split(), sim.Microsecond),
		Size:    workload.IMIX{Rng: rng.Split()},
		Flows:   simFlows, FlowSkew: simSkew,
		Rng: rng.Split(),
	})
	const n = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sinkPacket = t.NextPacket()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

var sinkPacket *packet.Packet

type timedPolicy struct {
	inner core.Policy
	tr    *tracer
}

func (t timedPolicy) Name() string { return t.inner.Name() }

func (t timedPolicy) Pick(now sim.Time, p *packet.Packet, paths []*core.PathState) []int {
	t.tr.enter(layerPolicy)
	defer t.tr.exit()
	return t.inner.Pick(now, p, paths)
}

type timedElement struct {
	inner nf.Element
	tr    *tracer
}

func (t timedElement) Name() string { return t.inner.Name() }

func (t timedElement) Process(now sim.Time, p *packet.Packet) nf.Result {
	t.tr.enter(layerNF)
	defer t.tr.exit()
	return t.inner.Process(now, p)
}

type timedQdisc struct {
	vnet.Qdisc
	tr *tracer
}

func (t timedQdisc) Enqueue(p *packet.Packet) bool {
	t.tr.enter(layerQdisc)
	defer t.tr.exit()
	return t.Qdisc.Enqueue(p)
}

func (t timedQdisc) Dequeue() *packet.Packet {
	t.tr.enter(layerQdisc)
	defer t.tr.exit()
	return t.Qdisc.Dequeue()
}
