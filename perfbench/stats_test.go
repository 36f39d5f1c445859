package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3.5, 1.25, 9, 4, 7.75}, 4},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.5, 1.25, 9, 4, 7.75}, 2.375, 8.375},
		{[]float64{6}, 6, 6},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // unsorted on purpose
	}
	sortInt64(xs)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{42}, 0.99); got != 42 {
		t.Errorf("percentile of one sample = %d, want 42", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

// Every packet index must map back from the (flow, seq) the sender gives
// it: each flow numbers its own packets 0, 1, 2, … in send order.
func TestWirePlanDueIndex(t *testing.T) {
	const n = 5000
	p := newWirePlan(7, n)
	next := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		f := p.flowOf[i]
		if f < 1 || f > wireFlows {
			t.Fatalf("packet %d on flow %d, outside 1..%d", i, f, wireFlows)
		}
		seq := next[f]
		next[f]++
		if got, ok := p.dueIndex(f, seq); !ok || got != i {
			t.Fatalf("dueIndex(%d, %d) = %d, %v; want %d", f, seq, got, ok, i)
		}
	}
	for f, seq := range next {
		if _, ok := p.dueIndex(f, seq); ok {
			t.Errorf("dueIndex(%d, %d) past the flow's last packet reported a packet", f, seq)
		}
	}
	for _, f := range []uint64{0, wireFlows + 1} {
		if _, ok := p.dueIndex(f, 0); ok {
			t.Errorf("dueIndex accepted flow %d", f)
		}
	}
	if q := newWirePlan(7, n); string(q.pattern) != string(p.pattern) || q.flowOf[n-1] != p.flowOf[n-1] {
		t.Error("the same seed built a different plan")
	}
}

func TestWirePlanPayloadCarriesIndex(t *testing.T) {
	p := newWirePlan(3, 10)
	buf := p.payload(nil, 9)
	if len(buf) != wirePayload || buf[0] != 9 || string(buf[8:]) != string(p.pattern[8:]) {
		t.Fatalf("payload for packet 9 = % x…", buf[:16])
	}
}

func TestSetupTimeSkipsWarmCalls(t *testing.T) {
	calls := 0
	got, err := setupTime(2, 3, func() (time.Duration, error) {
		calls++
		return time.Duration(calls) * time.Second, nil // warm 1 s, 2 s; timed 3, 4, 5 s
	})
	if err != nil || calls != 5 || got != 4 {
		t.Fatalf("setupTime = %v, %v after %d calls; want 4 s after 5", got, err, calls)
	}
}

// fakeClock returns the listed instants in order.
func fakeClock(ts ...int64) func() int64 {
	return func() int64 {
		v := ts[0]
		ts = ts[1:]
		return v
	}
}

func TestTracerSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{now: fakeClock(0, 10, 15, 40, 45, 50, 100)}
	tr.enter(layerSim)     // 0
	tr.enter(layerIngress) // 10
	tr.enter(layerPolicy)  // 15
	tr.exit()              // 40: policy 25
	tr.enter(layerQdisc)   // 45
	tr.exit()              // 50: qdisc 5; ingress covers 10..
	tr.exit()              // 100: ingress 90 - 30 = 60
	want := map[layer]int64{layerIngress: 60, layerPolicy: 25, layerQdisc: 5}
	for l, w := range want {
		if tr.self[l] != w {
			t.Errorf("self[%d] = %d, want %d", l, tr.self[l], w)
		}
	}
	if len(tr.stack) != 1 {
		t.Fatalf("stack depth %d, want the open sim span", len(tr.stack))
	}
}

func TestTracerSelfTimeNeverNegative(t *testing.T) {
	// Sibling spans that together cover the whole parent, then a clock
	// step backwards: no layer may be charged less than zero.
	tr := &tracer{now: fakeClock(100, 100, 150, 150, 200, 200, 190)}
	tr.enter(layerSim)
	tr.enter(layerNF)
	tr.exit()
	tr.enter(layerNF)
	tr.exit()
	tr.enter(layerWorkload)
	tr.exit()
	for l, v := range tr.self {
		if v < 0 {
			t.Errorf("self[%d] = %d < 0", l, v)
		}
	}
	if tr.self[layerNF] != 100 {
		t.Errorf("nf self = %d, want 100", tr.self[layerNF])
	}
	tr2 := &tracer{now: fakeClock(0, 0, 30, 20)}
	tr2.enter(layerSim)
	tr2.enter(layerNF)
	tr2.exit()
	tr2.exit() // parent ends before its child did
	if tr2.self[layerSim] != 0 || tr2.self[layerNF] != 30 {
		t.Errorf("self = %v, want sim 0 and nf 30", tr2.self)
	}
}

// The metric names and units the program prints are the ones
// BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, table map[string]string) {
		if len(declared) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(declared), len(table))
		}
		for _, m := range declared {
			if unit, ok := table[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s (%s), the program %q", kind, m.Name, m.Unit, unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
