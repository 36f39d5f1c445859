package transport

import (
	"fmt"
	"strings"
	"sync"
)

// Verifier is the wire-path invariant checker, the transport analogue of
// internal/invariant: it shadows what the sender put on the wire and what
// the receiver surfaced to the application, and asserts the properties
// hedged multipath delivery promises:
//
//   - No duplicate delivery: each (flow, seq) reaches the app at most once,
//     no matter how many hedged copies the wire carried.
//   - In-order delivery: each flow's delivered seqs are strictly
//     increasing.
//   - No invention: every delivered (flow, seq) was actually sent.
//   - Conservation: delivered never exceeds sent (per flow and in total).
//
// It is pure bookkeeping — safe for concurrent NoteSent/NoteDelivered from
// the sender and receiver sides of a loopback pair.
type Verifier struct {
	mu sync.Mutex

	nextSent map[uint64]uint64 // flow -> next unsent seq (sent seqs are < this)
	nextDlv  map[uint64]uint64 // flow -> last delivered seq + 1

	sent      uint64
	delivered uint64

	maxViolations int
	violations    []string
	nViolations   uint64
}

// NewVerifier returns an empty checker.
func NewVerifier() *Verifier {
	return &Verifier{
		nextSent:      make(map[uint64]uint64),
		nextDlv:       make(map[uint64]uint64),
		maxViolations: 16,
	}
}

func (v *Verifier) violate(format string, args ...any) {
	v.nViolations++
	if len(v.violations) < v.maxViolations {
		//lint:allow hotalloc violation path: formats only when an invariant already broke
		v.violations = append(v.violations, fmt.Sprintf(format, args...))
	}
}

// NoteSent records that (flow, seq) entered the wire (hedged copies count
// once: call it per application packet, not per wire frame).
func (v *Verifier) NoteSent(flow, seq uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.sent++
	if next := v.nextSent[flow]; seq != next {
		//lint:allow hotalloc violation path: boxes only when an invariant already broke
		v.violate("flow %x sent seq %d, want contiguous %d", flow, seq, next)
	}
	v.nextSent[flow] = seq + 1
}

// NoteDelivered records that (flow, seq) surfaced to the application.
func (v *Verifier) NoteDelivered(flow, seq uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.delivered++
	if next, known := v.nextSent[flow]; known && seq >= next {
		v.violate("flow %x delivered seq %d which was never sent (next unsent %d)", flow, seq, next)
	}
	if next := v.nextDlv[flow]; next > 0 && seq < next {
		if seq == next-1 {
			v.violate("flow %x delivered seq %d twice (duplicate surfaced)", flow, seq)
		} else {
			v.violate("flow %x delivered seq %d after seq %d (out of order)", flow, seq, next-1)
		}
		return
	}
	v.nextDlv[flow] = seq + 1
}

// Counts returns total application packets sent and delivered.
func (v *Verifier) Counts() (sent, delivered uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sent, v.delivered
}

// Violations returns the recorded messages (capped) and the exact count.
func (v *Verifier) Violations() ([]string, uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.violations...), v.nViolations
}

// Finish runs the end-of-run checks and returns an error describing every
// violation, or nil. Losses are legal (UDP); over-delivery never is.
func (v *Verifier) Finish() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.delivered > v.sent {
		v.violate("over-delivery: %d delivered exceeds %d sent", v.delivered, v.sent)
	}
	for flow, next := range v.nextDlv {
		if sentNext, known := v.nextSent[flow]; known && next > sentNext {
			v.violate("flow %x delivered through seq %d but only sent through %d", flow, next-1, sentNext-1)
		}
	}
	if v.nViolations == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "transport invariant: %d violation(s):", v.nViolations)
	for _, m := range v.violations {
		b.WriteString("\n  - ")
		b.WriteString(m)
	}
	if uint64(len(v.violations)) < v.nViolations {
		fmt.Fprintf(&b, "\n  … and %d more", v.nViolations-uint64(len(v.violations)))
	}
	return fmt.Errorf("%s", b.String())
}
