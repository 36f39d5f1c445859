package main

import "time"

// layer names one timed layer of the simulator pipeline.
type layer int

const (
	layerSim      layer = iota // sim.Simulator.RunUntil: event heap, lanes, reorder, closures
	layerWorkload              // workload.Traffic.NextPacket and the arrival gap draw
	layerClassify              // the vNIC ingress classifier (an nf element outside the chain)
	layerIngress               // core.DataPlane.Ingress: dispatch, clone, enqueue
	layerPolicy                // core.Policy.Pick
	layerQdisc                 // vnet.Qdisc Enqueue/Dequeue
	layerNF                    // the preset chain's nf.Element.Process calls
	numLayers
)

// tracer records nested layer spans and charges each layer its self time:
// a span's duration minus the part of it that nested spans cover. Spans
// are kept as a stack, so a layer called from inside another (the NF
// chain running inside Ingress when a lane is idle) is subtracted from its
// caller rather than counted twice. Single-goroutine, like the simulator.
type tracer struct {
	now   func() int64
	stack []frame
	self  [numLayers]int64
	calls [numLayers]uint64
}

type frame struct {
	l     layer
	start int64
	child int64 // time covered by spans nested directly inside this one
}

func newTracer() *tracer {
	base := time.Now()
	return &tracer{now: func() int64 { return int64(time.Since(base)) }}
}

func (t *tracer) enter(l layer) {
	t.stack = append(t.stack, frame{l: l, start: t.now()})
}

// exit closes the innermost open span.
func (t *tracer) exit() {
	top := len(t.stack) - 1
	f := t.stack[top]
	t.stack = t.stack[:top]
	d := t.now() - f.start
	self := d - f.child
	if self < 0 {
		// Only a clock that runs backwards gets here; never charge a
		// layer negative time.
		self = 0
	}
	t.self[f.l] += self
	t.calls[f.l]++
	if top > 0 {
		t.stack[top-1].child += d
	}
}
