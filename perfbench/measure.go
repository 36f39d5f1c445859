package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// usage is a snapshot of the process-wide costs a measured window is
// charged with: wall clock, kernel-reported CPU (which counts the GC and
// receiver goroutines that wall time hides), context switches, heap
// allocation counters and the runtime's GC CPU estimate.
type usage struct {
	wall     time.Time
	user     time.Duration
	sys      time.Duration
	ctxsw    int64
	mallocs  uint64
	allocB   uint64
	gcCPU    float64 // seconds
	totalCPU float64 // seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// takeUsage reads every counter. ReadMemStats stops the world, so call it
// only at the edges of a measured window.
func takeUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return usage{
		wall:     time.Now(),
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		ctxsw:    ru.Nvcsw + ru.Nivcsw,
		mallocs:  ms.Mallocs,
		allocB:   ms.TotalAlloc,
		gcCPU:    cpuMetrics[0].Value.Float64(),
		totalCPU: cpuMetrics[1].Value.Float64(),
	}
}

// cost is the difference of two usage snapshots.
type cost struct {
	wall    time.Duration
	user    time.Duration
	sys     time.Duration
	ctxsw   int64
	mallocs uint64
	allocB  uint64
	gcCPU   float64
	cpu     float64
}

func (u usage) since(before usage) cost {
	return cost{
		wall:    u.wall.Sub(before.wall),
		user:    u.user - before.user,
		sys:     u.sys - before.sys,
		ctxsw:   u.ctxsw - before.ctxsw,
		mallocs: u.mallocs - before.mallocs,
		allocB:  u.allocB - before.allocB,
		gcCPU:   u.gcCPU - before.gcCPU,
		cpu:     u.totalCPU - before.totalCPU,
	}
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.user += o.user
	c.sys += o.sys
	c.ctxsw += o.ctxsw
	c.mallocs += o.mallocs
	c.allocB += o.allocB
	c.gcCPU += o.gcCPU
	c.cpu += o.cpu
}

// cpuUsPerPkt is the window's user+sys CPU per offered packet, in µs.
func (c cost) cpuUsPerPkt(pkts uint64) float64 {
	return float64(c.user+c.sys) / 1e3 / float64(pkts)
}

func (c cost) gcFrac() float64 {
	if c.cpu <= 0 {
		return 0
	}
	return c.gcCPU / c.cpu
}

// setupTime returns the median, in seconds, of n timed calls to probe,
// which builds the workload, tears it down and returns how long the build
// took. It first makes warm untimed calls: the first builds in a process
// also start runtime threads and grow the heap, and are several times
// slower than the rest.
func setupTime(warm, n int, probe func() (time.Duration, error)) (float64, error) {
	var xs []float64
	for i := 0; i < warm+n; i++ {
		d, err := probe()
		if err != nil {
			return 0, err
		}
		if i >= warm {
			xs = append(xs, d.Seconds())
		}
	}
	return median(xs), nil
}

// sleepFloor measures how long a 50 µs time.Sleep really takes on the
// host the benchmark runs on (median of 21 tries). Timer slack makes it
// far longer than asked on some hosts, which bounds how finely an
// open-loop generator can pace.
func sleepFloor() time.Duration {
	var xs []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(median(xs))
}
