package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// mergeScenario builds a two-copy hedged packet with exactly known truth:
// true clock offset 5000ns, path 0 one-way 100ns (the fast path — equal
// to half the 200ns RTT, so the offset estimate recovers 5000 exactly),
// path 1 one-way 350ns (deduped sibling).
//
// Sender clock:   enq 1000, tx0 1100, tx1 1120, ack-rx rtt 200
// Receiver clock: rx0 6200, rx1 6470, release 6240, done 6250
func mergeScenario() []WireEvent {
	return []WireEvent{
		{Nanos: 1000, Kind: WireEnqueue, End: WireSender, Path: -1, FlowID: 7, Seq: 1, A: 256},
		{Nanos: 1001, Kind: WireSched, End: WireSender, Path: 0, FlowID: 7, Seq: 1, A: 2, B: WireSchedAtRisk | WireSchedDup},
		{Nanos: 1100, Kind: WireTx, End: WireSender, Path: 0, FlowID: 7, Seq: 1, PathSeq: 5},
		{Nanos: 1120, Kind: WireTx, End: WireSender, Path: 1, FlowID: 7, Seq: 1, PathSeq: 3, A: 1},
		{Nanos: 6200, Kind: WireRx, End: WireReceiver, Path: 0, FlowID: 7, Seq: 1, PathSeq: 5, A: 1000},
		{Nanos: 6470, Kind: WireRx, End: WireReceiver, Path: 1, FlowID: 7, Seq: 1, PathSeq: 3, A: 1000, B: 1},
		{Nanos: 6471, Kind: WireDedup, End: WireReceiver, Path: 1, FlowID: 7, Seq: 1, PathSeq: 3},
		{Nanos: 6250, Kind: WireDeliver, End: WireReceiver, Path: 0, FlowID: 7, Seq: 1, PathSeq: 5, A: 6200, B: 6240},
		{Nanos: 1300, Kind: WireAckRx, End: WireSender, Path: 0, A: 200},
	}
}

func TestMergeWireOffsetAndAttribution(t *testing.T) {
	m := MergeWire(mergeScenario())
	if m.OffsetNanos != 5000 {
		t.Fatalf("offset = %d, want 5000 (minGap 5100 − minRTT/2 100)", m.OffsetNanos)
	}
	if m.MinRTT != 200 || m.RTTSamples != 1 {
		t.Fatalf("minRTT %d (%d samples), want 200 (1)", m.MinRTT, m.RTTSamples)
	}
	if m.Delivered != 1 || m.Lost != 0 || m.Incomplete != 0 {
		t.Fatalf("delivered/lost/incomplete = %d/%d/%d, want 1/0/0",
			m.Delivered, m.Lost, m.Incomplete)
	}
	tl := m.Timelines[0]
	if !tl.Complete {
		t.Fatal("timeline with every boundary captured must be Complete")
	}
	want := WireAttr{SenderQueue: 100, Propagation: 100, ReorderWait: 40, Deliver: 10}
	if tl.Attr != want {
		t.Fatalf("attr = %+v, want %+v", tl.Attr, want)
	}
	if tl.E2E != 250 {
		t.Fatalf("e2e = %d, want 250", tl.E2E)
	}
	if got := tl.Attr.Total(); got != tl.E2E {
		t.Fatalf("attribution sum %d != e2e %d — the identity is exact by construction", got, tl.E2E)
	}
	if tl.SchedCopies != 2 || tl.SchedVerdict != (WireSchedAtRisk|WireSchedDup) {
		t.Fatalf("sched copies %d verdict %d", tl.SchedCopies, tl.SchedVerdict)
	}
	if len(tl.Copies) != 2 {
		t.Fatalf("copies = %d, want 2", len(tl.Copies))
	}
	for _, c := range tl.Copies {
		switch c.Path {
		case 0:
			if !c.Admitted || c.Deduped {
				t.Errorf("path 0 copy: admitted=%v deduped=%v, want winner", c.Admitted, c.Deduped)
			}
		case 1:
			if c.Admitted || !c.Deduped {
				t.Errorf("path 1 copy: admitted=%v deduped=%v, want deduped sibling", c.Admitted, c.Deduped)
			}
		default:
			t.Errorf("unexpected copy on path %d", c.Path)
		}
	}
}

// ackPairScenario is a one-packet trace with true clock offset 5000ns
// where the RTT echo misleads: the packet sat 800ns in the sender queue
// and the receiver held its ack 3000ns. Forward one-way 100ns, reverse
// one-way 120ns.
//
// Sender clock:   enq 1000, tx 1800, ack-rx 5020 (rtt echo 4020)
// Receiver clock: rx 6900, ack-tx 9900 (recv 1, high 1)
func ackPairScenario() []WireEvent {
	return []WireEvent{
		{Nanos: 1000, Kind: WireEnqueue, End: WireSender, Path: -1, FlowID: 7, Seq: 1, A: 64},
		{Nanos: 1800, Kind: WireTx, End: WireSender, Path: 0, FlowID: 7, Seq: 1, PathSeq: 1},
		{Nanos: 6900, Kind: WireRx, End: WireReceiver, Path: 0, FlowID: 7, Seq: 1, PathSeq: 1, A: 1000},
		{Nanos: 6950, Kind: WireDeliver, End: WireReceiver, Path: 0, FlowID: 7, Seq: 1, PathSeq: 1, A: 6900, B: 6940},
		{Nanos: 9900, Kind: WireAckTx, End: WireReceiver, Path: 0, A: 1, B: 1},
		{Nanos: 5020, Kind: WireAckRx, End: WireSender, Path: 0, Seq: 1, PathSeq: 1, A: 4020},
	}
}

// A matched ack gives the reverse one-way, so the offset is exact up to
// the path asymmetry — (100 − 120)/2 — whatever the sender queue and the
// ack hold were. The RTT-echo fallback would be off by half of both.
func TestMergeWireOffsetFromAckPairs(t *testing.T) {
	m := MergeWire(ackPairScenario())
	if m.AckPairs != 1 {
		t.Fatalf("ack pairs = %d, want 1", m.AckPairs)
	}
	if m.OffsetNanos != 4990 {
		t.Fatalf("offset = %d, want 4990 ((5100 − (−4880))/2)", m.OffsetNanos)
	}
	tl := m.Timelines[0]
	want := WireAttr{SenderQueue: 800, Propagation: 110, ReorderWait: 40, Deliver: 10}
	if tl.Attr != want || tl.Attr.Total() != tl.E2E {
		t.Fatalf("attr = %+v (e2e %d), want %+v", tl.Attr, tl.E2E, want)
	}

	// The same ack sent twice (a sweep repeating it while a hole stays
	// open) cannot be paired: the merge falls back to the RTT echo.
	evs := append(ackPairScenario(),
		WireEvent{Nanos: 11900, Kind: WireAckTx, End: WireReceiver, Path: 0, A: 1, B: 1})
	m = MergeWire(evs)
	if m.AckPairs != 0 {
		t.Fatalf("ack pairs = %d with a repeated ack key, want 0", m.AckPairs)
	}
	if m.OffsetNanos != 5100-4020/2 {
		t.Fatalf("fallback offset = %d, want %d (minGap − minRTT/2)", m.OffsetNanos, 5100-4020/2)
	}
}

func TestMergeWirePathTable(t *testing.T) {
	m := MergeWire(mergeScenario())
	if len(m.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(m.Paths))
	}
	p0, p1 := m.Paths[0], m.Paths[1]
	if p0.Path != 0 || p1.Path != 1 {
		t.Fatalf("path order %d,%d — want ascending", p0.Path, p1.Path)
	}
	if p0.Tx != 1 || p0.Rx != 1 || p0.Wins != 1 || p0.Deduped != 0 {
		t.Fatalf("path 0 stats %+v", p0)
	}
	if p0.PropMean != 100 || p0.PropMax != 100 {
		t.Fatalf("path 0 prop mean/max = %d/%d, want 100/100", p0.PropMean, p0.PropMax)
	}
	if p1.Wins != 0 || p1.Deduped != 1 || p1.PropMean != 350 {
		t.Fatalf("path 1 stats %+v", p1)
	}
}

// The identity Attr.Total() == E2E must hold for ANY offset estimate —
// offset error moves time between Propagation and nothing else. Drop the
// ack events so the estimator degrades to offset = minGap (5100, 100ns
// wrong) and verify the sum still telescopes.
func TestMergeWireIdentityHoldsWithoutRTT(t *testing.T) {
	var evs []WireEvent
	for _, ev := range mergeScenario() {
		if ev.Kind != WireAckRx {
			evs = append(evs, ev)
		}
	}
	m := MergeWire(evs)
	if m.OffsetNanos != 5100 {
		t.Fatalf("offset = %d, want minGap 5100 with no RTT samples", m.OffsetNanos)
	}
	tl := m.Timelines[0]
	if tl.Attr.Propagation != 0 {
		t.Fatalf("propagation = %d, want 0 (offset absorbed the one-way)", tl.Attr.Propagation)
	}
	if got := tl.Attr.Total(); got != tl.E2E {
		t.Fatalf("attribution sum %d != e2e %d", got, tl.E2E)
	}
}

// A receiver-only trace (single-ended capture, or the sender ring was
// lost) still attributes: the rx event's SendNanos echo reconstructs the
// accept time, the missing tx collapses SenderQueue into Propagation, and
// the timeline is marked incomplete.
func TestMergeWireReceiverOnly(t *testing.T) {
	var evs []WireEvent
	for _, ev := range mergeScenario() {
		if ev.End == WireReceiver {
			evs = append(evs, ev)
		}
	}
	m := MergeWire(evs)
	if m.SenderEvents != 0 || m.ReceiverEvents != 4 {
		t.Fatalf("events %d/%d", m.SenderEvents, m.ReceiverEvents)
	}
	if m.Delivered != 1 || m.Incomplete != 1 {
		t.Fatalf("delivered/incomplete = %d/%d, want 1/1", m.Delivered, m.Incomplete)
	}
	tl := m.Timelines[0]
	if tl.Complete {
		t.Fatal("timeline without tx must not be Complete")
	}
	if tl.EnqNanos != 1000 {
		t.Fatalf("enq = %d, want 1000 reconstructed from the SendNanos echo", tl.EnqNanos)
	}
	if tl.Attr.SenderQueue != 0 {
		t.Fatalf("sender queue = %d, want 0 (collapsed into propagation)", tl.Attr.SenderQueue)
	}
	if got := tl.Attr.Total(); got != tl.E2E {
		t.Fatalf("attribution sum %d != e2e %d", got, tl.E2E)
	}
}

func TestMergeWireLost(t *testing.T) {
	evs := []WireEvent{
		{Nanos: 1000, Kind: WireEnqueue, End: WireSender, Path: -1, FlowID: 3, Seq: 9, A: 64},
		{Nanos: 1050, Kind: WireTx, End: WireSender, Path: 0, FlowID: 3, Seq: 9, PathSeq: 1},
		{Nanos: 8000, Kind: WireLost, End: WireReceiver, Path: -1, FlowID: 3, Seq: 9},
	}
	m := MergeWire(evs)
	if m.Delivered != 0 || m.Lost != 1 {
		t.Fatalf("delivered/lost = %d/%d, want 0/1", m.Delivered, m.Lost)
	}
	if !m.Timelines[0].Lost {
		t.Fatal("timeline not marked lost")
	}
}

func TestMergeWireSlowestOrdering(t *testing.T) {
	var evs []WireEvent
	// Three packets, e2e 300 / 100 / 200 (offset 0: no tx/rx pairs).
	for i, e2e := range []int64{300, 100, 200} {
		seq := uint64(i)
		evs = append(evs,
			WireEvent{Nanos: 1000, Kind: WireRx, End: WireReceiver, Path: 0, FlowID: 1, Seq: seq, PathSeq: seq, A: 1000},
			WireEvent{Nanos: 1000 + e2e, Kind: WireDeliver, End: WireReceiver, Path: 0, FlowID: 1, Seq: seq, PathSeq: seq, A: 1000, B: 1000 + e2e},
		)
	}
	m := MergeWire(evs)
	got := []int64{m.Timelines[0].E2E, m.Timelines[1].E2E, m.Timelines[2].E2E}
	want := []int64{300, 200, 100}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slowest-first order %v, want %v", got, want)
	}
	if s := m.Slowest(2); len(s) != 2 || s[0].E2E != 300 {
		t.Fatalf("Slowest(2) = %+v", s)
	}
	if s := m.Slowest(99); len(s) != 3 {
		t.Fatalf("Slowest over-ask returned %d", len(s))
	}
}

// Merging must be order-independent: the gateway concatenates the sender
// then receiver rings, mpdp-inspect may see any interleaving.
func TestMergeWireOrderIndependent(t *testing.T) {
	evs := mergeScenario()
	rev := make([]WireEvent, len(evs))
	for i, ev := range evs {
		rev[len(evs)-1-i] = ev
	}
	a, b := MergeWire(evs), MergeWire(rev)
	if !reflect.DeepEqual(a.Timelines, b.Timelines) {
		t.Fatalf("timelines differ under event reordering:\n%+v\nvs\n%+v", a.Timelines, b.Timelines)
	}
	if a.OffsetNanos != b.OffsetNanos || !reflect.DeepEqual(a.Paths, b.Paths) {
		t.Fatal("offset or path table differs under event reordering")
	}
}

func TestMergeWireStages(t *testing.T) {
	m := MergeWire(mergeScenario())
	if len(m.Stages) != 5 {
		t.Fatalf("stages = %d, want 5", len(m.Stages))
	}
	byName := map[string]WireStage{}
	for _, st := range m.Stages {
		byName[st.Stage] = st
	}
	for name, want := range map[string]int64{
		"sender_queue": 100, "propagation": 100, "reorder_wait": 40, "deliver": 10, "e2e": 250,
	} {
		st, ok := byName[name]
		if !ok {
			t.Fatalf("missing stage %q", name)
		}
		if st.Latency.Count != 1 || st.Latency.P50 != want || st.Latency.Max != want {
			t.Errorf("stage %s: %+v, want single sample %d", name, st.Latency, want)
		}
	}
	dom, frac := m.DominantStage()
	if dom != "sender_queue" && dom != "propagation" {
		t.Fatalf("dominant stage %q (%f)", dom, frac)
	}
}

func TestWireRenderAndHeadline(t *testing.T) {
	m := MergeWire(mergeScenario())
	var buf bytes.Buffer
	if err := m.Render(&buf, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"wire trace", "clock offset", "sender_queue", "propagation",
		"flow 0000000000000007", "admitted", "deduped", "at-risk+dup",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if h := m.Headline(); !strings.Contains(h, "wire tail") {
		t.Fatalf("headline %q", h)
	}
	empty := MergeWire(nil)
	if h := empty.Headline(); !strings.Contains(h, "no delivered") {
		t.Fatalf("empty headline %q", h)
	}
	buf.Reset()
	if err := empty.Render(&buf, 3); err != nil {
		t.Fatalf("empty render: %v", err)
	}
}

func TestWireChromeTrace(t *testing.T) {
	m := MergeWire(mergeScenario())
	var buf bytes.Buffer
	if err := WriteWireChromeTrace(&buf, m, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names = append(names, n)
		}
		if args, ok := ev["args"].(map[string]any); ok {
			if n, ok := args["name"].(string); ok {
				names = append(names, n)
			}
		}
	}
	joined := strings.Join(names, "|")
	for _, want := range []string{"path 0", "path 1", "sender", "receiver", "flight", "queue", "deliver"} {
		if !strings.Contains(joined, want) {
			t.Errorf("chrome trace missing %q lane/slice; have %s", want, joined)
		}
	}
}

func TestSummarizeNanos(t *testing.T) {
	s := summarizeNanos(nil)
	if s.Count != 0 {
		t.Fatalf("empty summary count %d", s.Count)
	}
	vs := []int64{50, 10, 40, 20, 30}
	s = summarizeNanos(vs)
	if s.Count != 5 || s.Min != 10 || s.Max != 50 || s.P50 != 30 {
		t.Fatalf("summary %+v", s)
	}
	if s.Mean != 30 {
		t.Fatalf("mean %f, want 30", s.Mean)
	}
	// Input must not be mutated (callers hold the sample slices).
	if !reflect.DeepEqual(vs, []int64{50, 10, 40, 20, 30}) {
		t.Fatal("summarizeNanos mutated its input")
	}
}
