// Package telemetry is the unified observability layer: virtual-time
// execution traces, a zero-dependency metrics registry with Prometheus
// text exposition, and study/sweep progress reporting.
//
// The package splits along the repository's determinism boundary:
//
//   - CellTrace records kernel and MPI events timestamped in *virtual*
//     time only — it is wallclock-clean and safe to hook into
//     determinism-critical code (the same cell produces a byte-identical
//     trace on every run).
//   - Registry and Progress live on the host side (CLI, registry
//     service). Progress samples the wall clock — explicitly allowed,
//     since nothing it measures feeds simulated results.
//
// CellTrace implements mpi.Tap, the simulator's one telemetry seam:
// set it as a cell's Tap and it sees the kernel's scheduling events,
// every message and every collective span.
package telemetry

import (
	"repro/internal/mpi"
	"repro/internal/units"
	"repro/internal/vtime"
)

// DefaultTraceEvents is the per-cell event ring capacity: enough for a
// quick cell's full schedule while bounding a paper-scale cell's trace
// to tens of megabytes. The ring keeps the most recent events.
const DefaultTraceEvents = 1 << 16

// event kinds, in the order they are named by kindNames.
const (
	evSwitch uint8 = iota
	evPark
	evWake
	evFlush
	evMessage
	evPhaseBegin
	evPhaseEnd
	evIdle
)

// event is one recorded occurrence, kept compact so the ring is a flat
// allocation-free array. Field use varies by kind:
//
//	switch:   a=from b=to            t0=now
//	park:     a=id   name=tag        t0=now
//	wake:     a=waker b=woken        t0=now t1=wakerNow
//	flush:    a=batch                t0=now
//	message:  a=src b=dst c=tag      t0=sent t1=arrived size name=transport
//	phase:    a=rank name=collective t0=at
//	idle:     a=id   name=tag        t0=from t1=to
type event struct {
	kind    uint8
	a, b, c int
	t0, t1  units.Seconds
	size    units.ByteSize
	name    string
}

// CellTrace is a ring-buffered sink for one cell's execution events.
// It records in O(1) per event with no allocation and no locking —
// every producer (the vtime scheduler, the MPI point-to-point layer,
// the collectives) runs under the single-running-process invariant.
// Export renders the ring as Chrome Trace Event Format JSON
// (chrome://tracing, Perfetto).
//
// Recording is bounded: once the ring is full the oldest events are
// overwritten, and Export reports how many were dropped — the tail of
// a schedule is where a regression usually lives, so recency wins.
type CellTrace struct {
	label string
	ring  []event
	next  int   // next write position once the ring has wrapped
	full  bool  // the ring has wrapped at least once
	total int64 // events ever offered
	// maxTid tracks the largest proc/rank id seen, for thread metadata.
	maxTid int
	// kernel holds the execution's final scheduler counters, attached
	// after the run (they are not themselves events).
	kernel    vtime.Counters
	hasKernel bool
	// fwd, when non-nil, receives every event unbounded (see Forward).
	fwd mpi.Tap
}

// NewCellTrace creates a trace for one cell. maxEvents bounds the ring
// (values < 1 mean DefaultTraceEvents).
func NewCellTrace(label string, maxEvents int) *CellTrace {
	if maxEvents < 1 {
		maxEvents = DefaultTraceEvents
	}
	return &CellTrace{label: label, ring: make([]event, 0, maxEvents)}
}

// Len returns the number of events currently held (≤ the ring bound).
func (t *CellTrace) Len() int { return len(t.ring) }

// Total returns the number of events ever recorded, dropped included.
func (t *CellTrace) Total() int64 { return t.total }

// record appends one event, overwriting the oldest past the bound.
func (t *CellTrace) record(e event) {
	t.total++
	if e.a > t.maxTid {
		t.maxTid = e.a
	}
	if e.b > t.maxTid {
		t.maxTid = e.b
	}
	if !t.full {
		t.ring = append(t.ring, e)
		if len(t.ring) == cap(t.ring) {
			t.full = true
		}
		return
	}
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
}

// ordered returns the held events oldest-first.
func (t *CellTrace) ordered() []event {
	if !t.full || t.next == 0 {
		return t.ring
	}
	out := make([]event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// SetKernel attaches the execution's final scheduler counters, exported
// in the trace's otherData block.
func (t *CellTrace) SetKernel(c vtime.Counters) {
	t.kernel = c
	t.hasKernel = true
}

// Forward attaches a second Tap receiving every event offered to the
// trace, before ring bounding — the seam the profiler's attribution
// engine (internal/profile) hangs off, whose sums must account for all
// of a rank's virtual time, not just the most recent ring-full. Call it
// before the run; nil detaches.
func (t *CellTrace) Forward(tap mpi.Tap) { t.fwd = tap }

// Switch implements vtime.Tracer.
func (t *CellTrace) Switch(from, to int, now units.Seconds) {
	t.record(event{kind: evSwitch, a: from, b: to, t0: now})
	if t.fwd != nil {
		t.fwd.Switch(from, to, now)
	}
}

// Park implements vtime.Tracer.
func (t *CellTrace) Park(id int, tag string, now units.Seconds) {
	t.record(event{kind: evPark, a: id, t0: now, name: tag})
	if t.fwd != nil {
		t.fwd.Park(id, tag, now)
	}
}

// Wake implements vtime.Tracer.
func (t *CellTrace) Wake(waker, woken int, now, wakerNow units.Seconds) {
	t.record(event{kind: evWake, a: waker, b: woken, t0: now, t1: wakerNow})
	if t.fwd != nil {
		t.fwd.Wake(waker, woken, now, wakerNow)
	}
}

// Idle implements vtime.Tracer.
func (t *CellTrace) Idle(id int, tag string, from, to units.Seconds) {
	t.record(event{kind: evIdle, a: id, t0: from, t1: to, name: tag})
	if t.fwd != nil {
		t.fwd.Idle(id, tag, from, to)
	}
}

// FlushWakes implements vtime.Tracer.
func (t *CellTrace) FlushWakes(k int, now units.Seconds) {
	t.record(event{kind: evFlush, a: k, t0: now})
	if t.fwd != nil {
		t.fwd.FlushWakes(k, now)
	}
}

// Message implements mpi.Tap: one completed point-to-point
// message becomes a complete-event span on the destination rank's
// timeline, from send entry to payload arrival.
func (t *CellTrace) Message(src, dst, tag int, size units.ByteSize,
	transport string, sent, arrived units.Seconds) {
	t.record(event{kind: evMessage, a: src, b: dst, c: tag, t0: sent, t1: arrived, size: size, name: transport})
	if t.fwd != nil {
		t.fwd.Message(src, dst, tag, size, transport, sent, arrived)
	}
}

// PhaseBegin implements mpi.Tap.
func (t *CellTrace) PhaseBegin(rank int, name string, start units.Seconds) {
	t.record(event{kind: evPhaseBegin, a: rank, t0: start, name: name})
	if t.fwd != nil {
		t.fwd.PhaseBegin(rank, name, start)
	}
}

// PhaseEnd implements mpi.Tap.
func (t *CellTrace) PhaseEnd(rank int, name string, end units.Seconds) {
	t.record(event{kind: evPhaseEnd, a: rank, t0: end, name: name})
	if t.fwd != nil {
		t.fwd.PhaseEnd(rank, name, end)
	}
}
