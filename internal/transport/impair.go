package transport

import (
	"sync"
	"time"

	"mpdp/internal/xrand"
)

// Impairment is the fault verdict for one outgoing wire frame.
type Impairment struct {
	// Drop discards the frame before the socket write: a wire loss the
	// receiver can only see as a path-seq gap.
	Drop bool
	// Delay defers the write by this long (0 = none): wire latency
	// inflation without loss.
	Delay time.Duration
	// Duplicate writes the frame twice: a wire-level duplication (distinct
	// from hedging — same path, same path seq), which the receiver's
	// per-path wire dedup must absorb without corrupting ack accounting.
	Duplicate bool
}

// Impairer intercepts frames on their way to a path's socket — the wire
// transport's fault-injection hook, mirroring internal/fault's NF
// error-mode semantics (seeded fractions of packets harmed while active)
// at the link layer instead of inside a chain. Impair is called once per
// outgoing frame with the frame's path index; the verdict depends on the
// path and the impairer's own state, never on the frame's contents.
// Implementations must be safe for use from the sender's Send goroutine
// and any delayed-write timers.
type Impairer interface {
	Impair(path int) Impairment
}

// ImpairConfig parameterizes RandomImpairer: per-frame probabilities, an
// optional target path, and the seed that makes an impaired run as
// reproducible as a clean one (given a deterministic frame order).
type ImpairConfig struct {
	// Path selects the impaired path; -1 applies to every path (a uniform
	// wire error rate that must NOT get anyone quarantined unfairly).
	Path int
	// DropFrac is the probability a frame is discarded.
	DropFrac float64
	// DelayFrac is the probability a frame is delayed by Delay.
	DelayFrac float64
	Delay     time.Duration
	// DupFrac is the probability a frame is written twice.
	DupFrac float64
	// Seed drives the randomness (default 1).
	Seed uint64
}

// RandomImpairer applies seeded random drop/delay/duplicate to frames of
// one path (or all paths).
type RandomImpairer struct {
	cfg ImpairConfig

	mu      sync.Mutex
	rng     *xrand.Rand
	dropped uint64
	delayed uint64
	duped   uint64
}

// NewRandomImpairer builds the impairer; zero-valued fractions disable the
// corresponding fault.
func NewRandomImpairer(cfg ImpairConfig) *RandomImpairer {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &RandomImpairer{cfg: cfg, rng: xrand.New(cfg.Seed)}
}

// Impair implements Impairer.
func (im *RandomImpairer) Impair(path int) Impairment {
	if im.cfg.Path != -1 && path != im.cfg.Path {
		return Impairment{}
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	var out Impairment
	if im.cfg.DropFrac > 0 && im.rng.Bool(im.cfg.DropFrac) {
		im.dropped++
		out.Drop = true
		return out
	}
	if im.cfg.DelayFrac > 0 && im.rng.Bool(im.cfg.DelayFrac) {
		im.delayed++
		out.Delay = im.cfg.Delay
	}
	if im.cfg.DupFrac > 0 && im.rng.Bool(im.cfg.DupFrac) {
		im.duped++
		out.Duplicate = true
	}
	return out
}

// Counts returns how many frames were dropped, delayed, and duplicated.
func (im *RandomImpairer) Counts() (dropped, delayed, duplicated uint64) {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.dropped, im.delayed, im.duped
}

// BurstImpairConfig parameterizes BurstImpairer: episodic delay windows on
// one path, the last-mile fluctuation shape the paper targets (a neighbor
// VM wakes up, the path degrades for a stretch, then recovers) — as
// opposed to RandomImpairer's i.i.d. per-frame faults, which no
// telemetry-driven scheduler can anticipate.
type BurstImpairConfig struct {
	// Path selects the impaired path; -1 applies to every path.
	Path int
	// Period is the cycle length in frames; Length is how many frames at
	// the head of each cycle are inside the burst. Frames are counted
	// across ALL paths, so the burst window advances like wall time even
	// when a scheduler steers traffic away from the impaired path.
	Period, Length uint64
	// Delay is added to every impaired-path frame inside a burst.
	Delay time.Duration
}

// BurstImpairer delays impaired-path frames during periodic burst windows.
// Frame-counted (not clock-driven), so a run's fault pattern depends only
// on send order.
type BurstImpairer struct {
	cfg BurstImpairConfig

	mu      sync.Mutex
	n       uint64
	delayed uint64
}

// NewBurstImpairer builds the impairer; degenerate geometry (zero period,
// or bursts at least as long as the period) clamps to an always-on delay.
func NewBurstImpairer(cfg BurstImpairConfig) *BurstImpairer {
	if cfg.Period == 0 {
		cfg.Period = 1
	}
	if cfg.Length > cfg.Period {
		cfg.Length = cfg.Period
	}
	return &BurstImpairer{cfg: cfg}
}

// Impair implements Impairer.
func (im *BurstImpairer) Impair(path int) Impairment {
	im.mu.Lock()
	defer im.mu.Unlock()
	pos := im.n % im.cfg.Period
	im.n++
	if pos >= im.cfg.Length {
		return Impairment{}
	}
	if im.cfg.Path != -1 && path != im.cfg.Path {
		return Impairment{}
	}
	im.delayed++
	return Impairment{Delay: im.cfg.Delay}
}

// Delayed returns how many frames the burst windows caught.
func (im *BurstImpairer) Delayed() uint64 {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.delayed
}
