package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Human-readable rendering of a merged wire trace: headline (clock offset,
// coverage), attribution stage table, per-path table, and the slowest-K
// per-packet timelines with per-copy detail. Shared by mpdp-gateway's
// end-of-run summary and `mpdp-inspect -wire`.

// DominantStage names the attribution stage with the largest total time
// across complete timelines, with its share of total e2e in [0,1].
func (m *WireMerge) DominantStage() (string, float64) {
	var e2e float64
	name, best := "(none)", 0.0
	for _, st := range m.Stages {
		tot := st.Latency.Mean * float64(st.Latency.Count)
		if st.Stage == "e2e" {
			e2e = tot
			continue
		}
		if tot > best {
			name, best = st.Stage, tot
		}
	}
	if e2e <= 0 {
		return name, 0
	}
	return name, best / e2e
}

// Headline returns the one-line wire-attribution summary, e.g.
// "wire tail = 61% propagation (offset -123µs, 412 packets merged)".
func (m *WireMerge) Headline() string {
	if m.Delivered == 0 {
		return "wire tail = (no delivered packets merged)"
	}
	dom, frac := m.DominantStage()
	return fmt.Sprintf("wire tail = %.0f%% %s (offset %v, %d packets merged)",
		frac*100, dom, time.Duration(m.OffsetNanos), m.Delivered)
}

// Render writes the full report. timelines bounds the per-packet section
// (≤ 0 renders none); the slowest sort means the section leads with the
// tail.
func (m *WireMerge) Render(w io.Writer, timelines int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "-- wire trace: %d sender + %d receiver events --\n",
		m.SenderEvents, m.ReceiverEvents)
	fmt.Fprintf(&b, "clock offset (receiver-sender): %v   min rtt: %v (%d samples, %d ack pairs)\n",
		time.Duration(m.OffsetNanos), time.Duration(m.MinRTT), m.RTTSamples, m.AckPairs)
	fmt.Fprintf(&b, "packets: %d delivered, %d lost, %d incomplete (ring truncation)\n",
		m.Delivered, m.Lost, m.Incomplete)
	b.WriteString(m.Headline())
	b.WriteString("\n\nstage            count        mean         p50         p99         max\n")
	for _, st := range m.Stages {
		s := st.Latency
		fmt.Fprintf(&b, "%-14s %7d  %10v  %10v  %10v  %10v\n",
			st.Stage, s.Count, time.Duration(int64(s.Mean)),
			time.Duration(s.P50), time.Duration(s.P99), time.Duration(s.Max))
	}
	if len(m.Paths) > 0 {
		b.WriteString("\npath      tx      rx    wins  deduped   prop-mean    prop-max\n")
		for _, p := range m.Paths {
			fmt.Fprintf(&b, "%4d  %6d  %6d  %6d  %7d  %10v  %10v\n",
				p.Path, p.Tx, p.Rx, p.Wins, p.Deduped,
				time.Duration(p.PropMean), time.Duration(p.PropMax))
		}
	}
	if timelines > 0 {
		for i, tl := range m.Slowest(timelines) {
			fmt.Fprintf(&b, "\n#%d  flow %016x seq %-6d  e2e %v%s\n",
				i+1, tl.FlowID, tl.Seq, time.Duration(tl.E2E), timelineFlags(tl))
			fmt.Fprintf(&b, "    queue %v -> propagation %v -> reorder %v -> deliver %v  (sched: %d copies%s)\n",
				time.Duration(tl.Attr.SenderQueue), time.Duration(tl.Attr.Propagation),
				time.Duration(tl.Attr.ReorderWait), time.Duration(tl.Attr.Deliver),
				tl.SchedCopies, renderVerdict(tl.SchedVerdict))
			for _, c := range tl.Copies {
				status := "in flight"
				switch {
				case c.Admitted:
					status = "admitted"
				case c.Deduped:
					status = "deduped"
				case c.RxNanos != 0:
					status = "arrived"
				case tl.DeliverNanos != 0 || tl.Lost:
					status = "dropped"
				}
				fmt.Fprintf(&b, "    copy path=%d pseq=%-6d %s", c.Path, c.PathSeq, status)
				if c.TxNanos != 0 && c.RxNanos != 0 {
					fmt.Fprintf(&b, "  flight %v", time.Duration((c.RxNanos-m.OffsetNanos)-c.TxNanos))
				}
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func timelineFlags(tl WireTimeline) string {
	switch {
	case tl.Lost:
		return "  LOST"
	case !tl.Complete:
		return "  (incomplete)"
	}
	return ""
}

// VerdictString decodes WireSched verdict bits for display, e.g.
// "at-risk+dup", or "" when no bits are set — the key the incident
// bundle's scheduler verdict mix is grouped by.
func VerdictString(v int64) string {
	var parts []string
	for _, f := range []struct {
		bit  int64
		name string
	}{
		{WireSchedCanary, "canary"},
		{WireSchedAtRisk, "at-risk"},
		{WireSchedDup, "dup"},
		{WireSchedDenied, "denied"},
		{WireSchedFallback, "fallback"},
	} {
		if v&f.bit != 0 {
			parts = append(parts, f.name)
		}
	}
	return strings.Join(parts, "+")
}

// renderVerdict is VerdictString with the report's leading-space
// convention (empty stays empty so unverdicted rows stay clean).
func renderVerdict(v int64) string {
	if s := VerdictString(v); s != "" {
		return " " + s
	}
	return ""
}
