package transport

// First-copy-wins dedup: hedged duplication sends the same (flow, seq) down
// two paths, and exactly one copy may surface to the application. The
// receiver tracks, per flow, a sliding window of admitted sequence numbers
// — the classic anti-replay bitmap — so the first copy to land claims the
// seq and every later copy is discarded before it reaches the reorder
// stage.
//
// Window sizing: the window must span the largest plausible seq spread
// between the fastest and slowest in-flight copy of one flow — bounded by
// (path latency skew × per-flow packet rate). DefaultDedupWindow (4096
// seqs) covers a 4 ms skew at 1 Mpps on one flow; beyond the window a
// stale copy is treated as a duplicate, which is always safe (the reorder
// stage would refuse to deliver something that old anyway — its flow
// cursor has moved on). See DESIGN.md §9.

// DefaultDedupWindow is the per-flow dedup window in sequence numbers.
// Must be a power of two.
const DefaultDedupWindow = 4096

// dedupWindow is one flow's admitted-seq bitmap covering
// (max-window, max]. Not goroutine-safe: the per-path wire windows are
// guarded by their path's lock, the per-flow windows by the receiver's
// dedup lock.
type dedupWindow struct {
	started bool
	max     uint64   // highest admitted seq
	bits    []uint64 // ring bitmap, window bits
	window  uint64
}

func newDedupWindow(window uint64) *dedupWindow {
	//lint:allow hotalloc one bitmap per flow at first sight, amortized over the flow's packets
	return &dedupWindow{bits: make([]uint64, window/64), window: window}
}

func (w *dedupWindow) bit(seq uint64) (idx int, mask uint64) {
	b := seq % w.window
	return int(b / 64), 1 << (b % 64)
}

func (w *dedupWindow) set(seq uint64)       { i, m := w.bit(seq); w.bits[i] |= m }
func (w *dedupWindow) clear(seq uint64)     { i, m := w.bit(seq); w.bits[i] &^= m }
func (w *dedupWindow) seen(seq uint64) bool { i, m := w.bit(seq); return w.bits[i]&m != 0 }

// Admit reports whether seq is fresh (first copy) and claims it. Sequences
// at or below max-window are reported as duplicates: too old to verify, and
// too old for the reorder stage to deliver in order anyway.
func (w *dedupWindow) Admit(seq uint64) bool {
	if !w.started {
		w.started = true
		w.max = seq
		w.set(seq)
		return true
	}
	switch {
	case seq > w.max:
		// Window slides forward: positions between the old and new max are
		// unseen; their ring slots must be scrubbed before reuse.
		if seq-w.max >= w.window {
			for i := range w.bits {
				w.bits[i] = 0
			}
		} else {
			for s := w.max + 1; s < seq; s++ {
				w.clear(s)
			}
		}
		w.max = seq
		w.set(seq)
		return true
	case w.max-seq >= w.window:
		return false // behind the window: stale copy
	case w.seen(seq):
		return false
	default:
		w.set(seq)
		return true
	}
}

// dedup is the receiver-wide map of per-flow windows, plus drop accounting.
type dedup struct {
	flows  map[uint64]*dedupWindow
	window uint64

	dupDrops uint64 // copies discarded because their seq was already admitted
}

func newDedup(window uint64) *dedup {
	if window == 0 {
		window = DefaultDedupWindow
	}
	// Round up to a power of two so the ring math stays a mask.
	w := uint64(64)
	for w < window {
		w <<= 1
	}
	return &dedup{flows: make(map[uint64]*dedupWindow), window: w}
}

// Admit claims (flow, seq) for the first copy; duplicates are counted.
//
//mpdp:hotpath bench=BenchmarkDedupAdmit
func (d *dedup) Admit(flow, seq uint64) bool {
	w, ok := d.flows[flow]
	if !ok {
		w = newDedupWindow(d.window)
		d.flows[flow] = w
	}
	if !w.Admit(seq) {
		d.dupDrops++
		return false
	}
	return true
}
