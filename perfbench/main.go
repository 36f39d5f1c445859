// Command perfbench is the repository benchmark: it runs one named
// workload through the simulator, the UDP wire path or the gateway mesh,
// checks that the output is correct, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Without tracing the metrics are the end-to-end set; with -trace 1 they
// are the per-layer set, measured by timing calls into each layer's public
// functions from this package. The line before it is a record of the run's
// environment. A failed correctness gate exits with status 1.
//
// See README.md for the workloads, the metric glossary and which layer
// metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the benchmark's inputs; the workloads derive everything
// they generate from seed.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run returns: operation counts, the metrics it
// measured and, when a correctness gate failed, the reason.
type outcome struct {
	attempted uint64
	failed    uint64
	err       error
	metrics   map[string]metric
	notes     map[string]any
}

func (o *outcome) fail(err error) outcome {
	o.err = err
	return *o
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(key string, v any) {
	if o.notes == nil {
		o.notes = make(map[string]any)
	}
	o.notes[key] = v
}

// e2e records the end-to-end set. Throughput and CPU are medians over a
// run's repetitions, which host noise moves less than a total; allocation
// counts come from a window c that offered pkts packets.
func (o *outcome) e2e(setupS, pktsPerS, cpuUsPerPkt float64, c cost, pkts uint64, deliveredFrac float64) {
	o.set("setup_s", setupS, "s")
	o.set("pkts_per_s", pktsPerS, "1/s")
	o.set("cpu_us_per_pkt", cpuUsPerPkt, "us")
	o.set("allocs_per_pkt", float64(c.mallocs)/float64(pkts), "count")
	o.set("heap_bytes_per_pkt", float64(c.allocB)/float64(pkts), "B")
	o.set("delivered_frac", deliveredFrac, "frac")
}

// endToEnd and perLayer name every metric the two modes print, with its
// unit; BENCHMARK.json lists the same names. A workload that never calls a
// layer reports that layer's metrics as 0: the layer was bypassed.
var endToEnd = map[string]string{
	"setup_s":            "s",
	"pkts_per_s":         "1/s",
	"cpu_us_per_pkt":     "us",
	"allocs_per_pkt":     "count",
	"heap_bytes_per_pkt": "B",
	"delivered_frac":     "frac",
}

var perLayer = map[string]string{
	"workload.ns_per_pkt":           "ns",
	"workload.allocs_per_pkt":       "count",
	"core.policy_ns_per_pkt":        "ns",
	"core.ingress_self_ns_per_pkt":  "ns",
	"core.copies_per_pkt":           "count",
	"core.reorder_ooo_frac":         "frac",
	"core.reorder_max_occupancy":    "count",
	"nf.ns_per_copy":                "ns",
	"nf.classify_ns_per_pkt":        "ns",
	"vnet.qdisc_ns_per_copy":        "ns",
	"vnet.queue_wait_p99_us":        "us",
	"vnet.service_p99_us":           "us",
	"sim.self_ns_per_pkt":           "ns",
	"sim.events_per_pkt":            "count",
	"sim.p50_virtual_us":            "us",
	"sim.p99_virtual_us":            "us",
	"transport.send_ns_per_pkt":     "ns",
	"transport.encode_p50_ns":       "ns",
	"transport.socket_write_p50_ns": "ns",
	"transport.socket_write_p99_ns": "ns",
	"transport.reorder_p50_us":      "us",
	"transport.reorder_p99_us":      "us",
	"transport.e2e_p50_us":          "us",
	"transport.e2e_p99_us":          "us",
	"transport.due_p50_us":          "us",
	"transport.due_p99_us":          "us",
	"transport.sys_us_per_pkt":      "us",
	"transport.user_us_per_pkt":     "us",
	"transport.ctxsw_per_pkt":       "count",
	"transport.frames_per_pkt":      "count",
	"transport.useful_frame_frac":   "frac",
	"transport.dup_drops_per_pkt":   "count",
	"mesh.p99_us":                   "us",
	"mesh.p99_pre_drain_us":         "us",
	"mesh.drain_ms":                 "ms",
	"mesh.handoff_flows":            "count",
	"mesh.handoff_records":          "count",
	"mesh.handoff_timeouts":         "count",
	"mesh.forwarded_per_pkt":        "count",
	"mesh.stale_steers":             "count",
	"mesh.overflow_drops":           "count",
	"mesh.resteers":                 "count",
	"runtime.gc_cpu_frac":           "frac",
	"bench.trace_overhead_frac":     "frac",
	"bench.gen_late_p99_us":         "us",
}

var workloads = map[string]func(options) outcome{
	"sim_interfered": runSimInterfered,
	"wire_paced":     runWirePaced,
	"mesh_drain":     runMeshDrain,
}

func main() {
	name := flag.String("workload", "", "workload to run: sim_interfered, wire_paced or mesh_drain")
	seed := flag.Uint64("seed", 1, "seed every generated input is derived from")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", sortedKeys(workloads))
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	out := run(opts)

	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	if out.err == nil {
		for k, unit := range want {
			if _, done := out.metrics[k]; !done {
				out.set(k, 0, unit)
			}
		}
		for k, m := range out.metrics {
			if unit, listed := want[k]; !listed || unit != m.Unit {
				out.err = fmt.Errorf("perfbench: %s reported %s in %s, which BENCHMARK.json does not list", *name, k, m.Unit)
			} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				out.err = fmt.Errorf("perfbench: %s measured no value for %s", *name, k)
			}
		}
	}

	record := map[string]any{
		"workload":   *name,
		"seed":       opts.seed,
		"seconds":    *seconds,
		"trace":      opts.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit(),
	}
	for k, v := range out.notes {
		record[k] = v
	}
	if out.err != nil {
		record["error"] = out.err.Error()
		fmt.Fprintln(os.Stderr, out.err)
	}
	emit(record)
	if out.err != nil {
		out.metrics = map[string]metric{} // a failed run's numbers are not results
	}
	emit(map[string]any{
		"correct":   out.err == nil,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
	if out.err != nil {
		os.Exit(1)
	}
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Every value is a plain number, string or map; only a NaN or an
		// infinity can fail here, and that is a bug in a workload.
		panic(err)
	}
	fmt.Println(string(b))
}

// commit names the source revision: the value run.sh passes down, which
// falls back to a digest of the sources when the checkout is not a git
// repository.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
