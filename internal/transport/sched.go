package transport

import "mpdp/internal/obs"

// Sender-side path scheduling. The schedulers mirror the internal/core
// policies on the signals a real wire provides — no lane telemetry, but
// exact in-flight counts from ack accounting — and reuse core's health
// machinery (core.HealthTracker per path) with the same contract the
// simulated policies obey: Quarantined and Probing paths receive no
// ordinary traffic, probing paths take a canary trickle (one in
// CanaryEvery packets), and when NO path is eligible the scheduler falls
// back to ignoring health so traffic keeps flowing and keeps the watchdog
// fed.

// SchedulerName selects the sender's path scheduler.
type SchedulerName string

const (
	// SchedRoundRobin sprays packets across eligible paths per packet —
	// core's RoundRobin on the wire.
	SchedRoundRobin SchedulerName = "rr"
	// SchedLeastInflight picks the eligible path with the fewest
	// unacknowledged frames — core's JSQ with ack-derived depth.
	SchedLeastInflight SchedulerName = "least-inflight"
	// SchedHedge duplicates every packet onto the HedgeK least-loaded
	// eligible paths — core's Redundant policy; the receiver's
	// first-copy-wins dedup keeps whichever copy lands first.
	SchedHedge SchedulerName = "hedge"
	// SchedDeadline mirrors core's DeadlineAware on the wire: best single
	// path while the packet's deadline looks safe there (judged against the
	// path's ack-derived RTT plus a jitter margin), escalating to a second
	// copy only when the deadline is at risk — and only when the global
	// duplication-bytes budget covers the extra frame.
	SchedDeadline SchedulerName = "deadline"
)

// scheduler picks path indices for one application packet. Owned by the
// sender's Send goroutine (callers hold the sender lock for health reads).
type scheduler struct {
	name        SchedulerName
	hedgeK      int
	canaryEvery int

	// Deadline mode (SchedDeadline only). deadlineNanos is the per-packet
	// wall-clock latency budget; margin multiplies the path's RTT jitter in
	// the risk estimate; budget meters duplicated bytes.
	deadlineNanos int64
	margin        float64
	budget        *wireDupBudget
	dstats        WireDeadlineStats

	next  int    // round-robin cursor
	count uint64 // packets scheduled (canary clock)
	picks []int  // scratch, reused across calls
	elig  []int  // scratch, reused across calls

	// verdict holds the obs.WireSched* bits of the most recent pick, for
	// the sender's wire trace. Reset at the top of every pick.
	verdict int64
}

// WireDeadlineStats snapshots the deadline scheduler's decisions and
// budget accounting (all zero unless SchedDeadline is active).
type WireDeadlineStats struct {
	Safe         uint64 `json:"safe"`    // deadline judged safe on the best path
	AtRisk       uint64 `json:"at_risk"` // deadline judged at risk
	Duplicated   uint64 `json:"duplicated"`
	Denied       uint64 `json:"denied"` // duplication wanted but withheld
	BudgetSpent  uint64 `json:"budget_spent_bytes"`
	BudgetDenied uint64 `json:"budget_denied"`
}

// wireDupBudget is core.DupBudget re-expressed in wall nanoseconds: a
// duplication-bytes token bucket refilled at rate bytes/sec up to burst.
// Guarded by the sender lock like the rest of the scheduler state.
type wireDupBudget struct {
	rate  float64 // bytes per second
	burst float64 // bucket capacity in bytes

	tokens    float64
	lastNanos int64
	started   bool

	spent  uint64
	denied uint64
}

func newWireDupBudget(bytesPerSec, burst float64) *wireDupBudget {
	if !(bytesPerSec > 0) {
		bytesPerSec = 0
	}
	if !(burst > 0) {
		burst = 0
	}
	if burst == 0 && bytesPerSec > 0 {
		burst = bytesPerSec / 100 // 10 ms worth, mirroring core.NewDupBudget
		if burst < 1 {
			burst = 1
		}
	}
	return &wireDupBudget{rate: bytesPerSec, burst: burst}
}

// trySpend withdraws size bytes if available at wall time nowNanos.
// Tokens never go negative: a spend either fits or is denied.
func (b *wireDupBudget) trySpend(nowNanos int64, size int) bool {
	if b.rate == 0 && b.burst == 0 {
		b.denied++
		return false
	}
	if !b.started {
		b.started = true
		b.lastNanos = nowNanos
		b.tokens = b.burst
	} else if nowNanos > b.lastNanos {
		b.tokens += b.rate * float64(nowNanos-b.lastNanos) / 1e9
		b.lastNanos = nowNanos
	}
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if size < 0 {
		size = 0
	}
	if float64(size) > b.tokens {
		b.denied++
		return false
	}
	b.tokens -= float64(size)
	b.spent += uint64(size)
	return true
}

// pathView is what the scheduler reads per path: health eligibility and
// ack-derived load.
type pathView interface {
	eligible() bool
	probing() bool
	inflight() int
}

// pick returns 1..n distinct path indices for the next packet, plus the
// position in picks (or -1) of a canary copy onto a probing path. Unlike
// core's engine — where a canary IS the packet's only copy — the wire
// scheduler sends the canary alongside the normal pick: the probing path
// gets real sacrificial volume, but a still-dead path costs an extra
// frame, not an end-to-end loss (the receiver's dedup absorbs whichever
// copy is surplus). nowNanos and size feed only the deadline scheduler's
// budget accounting; the other modes ignore them.
func (s *scheduler) pick(paths []*senderPath, nowNanos int64, size int) (picks []int, canaryIdx int) {
	s.count++
	s.verdict = 0
	canaryIdx = -1
	canaryPath := -1
	// Canary trickle: every canaryEvery-th packet feeds a probing path,
	// sacrificial volume proving (or disproving) recovery.
	if s.canaryEvery > 0 && s.count%uint64(s.canaryEvery) == 0 {
		canaryPath = s.nextProbing(paths)
	}

	s.elig = s.elig[:0]
	for i, p := range paths {
		if p.eligible() {
			s.addElig(i)
		}
	}
	cand := s.elig
	if len(cand) == 0 {
		// Mass failure: ignore health rather than stall (and keep the
		// watchdogs fed), exactly like the core policies.
		s.verdict |= obs.WireSchedFallback
		for i := range paths {
			s.addElig(i)
		}
		cand = s.elig
	}

	s.picks = s.picks[:0]
	switch s.name {
	case SchedRoundRobin:
		s.addPick(cand[s.next%len(cand)])
		s.next++
	case SchedLeastInflight:
		s.addPick(bestByInflight(paths, cand, -1))
	case SchedDeadline:
		// Best single path by RTT-plus-jitter estimate; duplicate onto the
		// runner-up only when even the best estimate threatens the deadline
		// and the byte budget covers the extra frame.
		first := s.bestByEstimate(paths, cand, -1)
		s.addPick(first)
		est := pathEstimate(paths[first], s.margin)
		switch {
		case s.deadlineNanos <= 0 || est <= s.deadlineNanos:
			// est==0 means no RTT sample yet: optimistic until acks teach us.
			s.dstats.Safe++
		default:
			s.dstats.AtRisk++
			s.verdict |= obs.WireSchedAtRisk
			second := s.bestByEstimate(paths, cand, first)
			if second < 0 {
				s.dstats.Denied++
				s.verdict |= obs.WireSchedDenied
			} else if s.budget == nil || !s.budget.trySpend(nowNanos, size) {
				s.dstats.Denied++
				s.verdict |= obs.WireSchedDenied
			} else {
				s.dstats.Duplicated++
				s.verdict |= obs.WireSchedDup
				s.addPick(second)
			}
		}
	default: // SchedHedge
		k := s.hedgeK
		if k < 2 {
			k = 2
		}
		if k > len(cand) {
			k = len(cand)
		}
		first := bestByInflight(paths, cand, -1)
		s.addPick(first)
		for len(s.picks) < k {
			next := bestByInflight(paths, cand, s.picks...)
			if next < 0 {
				break
			}
			s.addPick(next)
		}
	}
	if canaryPath >= 0 {
		s.verdict |= obs.WireSchedCanary
		for i, p := range s.picks {
			if p == canaryPath {
				return s.picks, i // fallback mode already routed here
			}
		}
		canaryIdx = len(s.picks)
		s.addPick(canaryPath)
	}
	return s.picks, canaryIdx
}

// addElig and addPick append to the scratch slices, which Dial sizes to
// the path count: a packet's candidates and picks are distinct paths, so
// neither ever grows.
func (s *scheduler) addElig(i int) {
	s.elig = append(s.elig, i) //lint:allow hotalloc capacity is the path count (Dial), never exceeded
}

func (s *scheduler) addPick(i int) {
	s.picks = append(s.picks, i) //lint:allow hotalloc capacity is the path count (Dial), never exceeded
}

// nextProbing rotates across probing paths so concurrent probes share the
// canary trickle (mirrors core's nextProbing).
func (s *scheduler) nextProbing(paths []*senderPath) int {
	n := len(paths)
	start := int(s.count) % n
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if paths[i].probing() {
			return i
		}
	}
	return -1
}

// bestByEstimate returns the candidate with the lowest RTT-plus-jitter
// estimate, excluding skip. Ties break by in-flight count then lowest
// index; unsampled paths (estimate 0) win outright, so a fresh path gets
// traffic — and therefore RTT samples — immediately. Returns -1 when every
// candidate is excluded.
func (s *scheduler) bestByEstimate(paths []*senderPath, cand []int, skip int) int {
	best := -1
	var bestEst int64
	var bestLoad int
	for _, i := range cand {
		if i == skip {
			continue
		}
		est := pathEstimate(paths[i], s.margin)
		load := paths[i].inflight()
		if best == -1 || est < bestEst || (est == bestEst && load < bestLoad) {
			best, bestEst, bestLoad = i, est, load
		}
	}
	return best
}

// pathEstimate is the wire analogue of core's fluctuation estimate: the
// path's smoothed RTT plus margin times its smoothed RTT deviation,
// clamped finite. 0 until the first ack delivers an RTT sample.
func pathEstimate(p *senderPath, margin float64) int64 {
	if p.rttNanos == 0 {
		return 0
	}
	est := float64(p.rttNanos) + margin*float64(p.rttJitter)
	if !(est > 0) { // NaN or non-positive
		return 0
	}
	const maxEst = int64(1) << 60
	if est > float64(maxEst) {
		return maxEst
	}
	return int64(est)
}

// bestByInflight returns the candidate with the fewest in-flight frames
// (ties to the lowest index, keeping runs deterministic), excluding any
// index in skip. Returns -1 when every candidate is excluded.
func bestByInflight(paths []*senderPath, cand []int, skip ...int) int {
	best, bestLoad := -1, 0
	for _, i := range cand {
		excluded := false
		for _, sk := range skip {
			if i == sk {
				excluded = true
				break
			}
		}
		if excluded {
			continue
		}
		if load := paths[i].inflight(); best == -1 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}
