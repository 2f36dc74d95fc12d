// Package profile turns the telemetry event stream into explanations:
// where every virtual nanosecond of a cell went, per rank and per
// collective phase, and which chain of dependencies set the makespan.
//
// A Recorder taps the full event stream online (telemetry.CellTrace
// forwards every event before ring bounding, so attribution never
// loses events to the trace ring's recency policy) and classifies each
// rank's timeline into four categories:
//
//   - compute: the rank's clock advancing under model costs — solver
//     work, MPI packing/overhead CPU charges, container startup skew;
//   - p2pWait: blocked or idle in a point-to-point operation outside
//     any collective (park→wake intervals and completed-request
//     clock catch-ups);
//   - collectiveWait: the same wait states inside a collective phase
//     span (Barrier, Allreduce, ...);
//   - resourceWait: clock jumps waiting for a serially-reusable
//     resource (NIC injection, filesystem bandwidth).
//
// Wait intervals are closed from exact clock values the kernel itself
// used, so they tile each rank's [0, end] timeline exactly: interval
// boundaries are equal as float64s, not merely close. Category
// durations are sums over that exact partition, and compute is defined
// as total minus the wait sums — the per-rank categories therefore sum
// to the rank's total virtual time by construction, and Profile
// validates the partition (monotone, in-bounds, nothing left open)
// before reporting.
package profile

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// Category detail tags follow the kernel's park/idle tags: "wait:irecv",
// "wait:isend", "wait:send-rdv", "resource:<name>".
const resourcePrefix = "resource:"

// msgInfo captures the point-to-point message whose completion released
// a blocked rank, for critical-path edge labelling.
type msgInfo struct {
	src, dst, tag int
	size          units.ByteSize
	transport     string
	arrived       units.Seconds
}

// wait is one closed wait interval on a rank's timeline.
type wait struct {
	from, to units.Seconds
	// wakerAt is the waker's clock at the releasing action (the causal
	// source time); equal to `to` for idle catch-ups with no waker.
	wakerAt units.Seconds
	tag     string
	// phase is the ";"-joined collective span stack the rank was inside
	// ("" outside collectives).
	phase string
	// by is the releasing rank, -1 for idle catch-ups.
	by     int
	msg    msgInfo
	hasMsg bool
}

// rankRec accumulates one rank's attribution state during the run.
type rankRec struct {
	parked    bool
	parkAt    units.Seconds
	parkTag   string
	stack     []phaseOpen
	phasePath string
	waits     []wait
}

type phaseOpen struct {
	name  string
	begin units.Seconds
}

// Recorder consumes the telemetry event stream — it implements mpi.Tap
// structurally; attach it with telemetry.CellTrace.Forward, or as a
// cell's Tap directly — and accumulates per-rank wait intervals and
// collective phase spans. It is single-goroutine like every tap:
// callbacks arrive under the kernel's single-running-process
// invariant.
type Recorder struct {
	ranks []*rankRec
	// phase time aggregation: outermost span durations per collective.
	phaseTime  map[string]units.Seconds
	phaseCount map[string]int
	// lastMsg pairs a message completion with the wake it triggers (the
	// MPI layer wakes the released rank immediately after observing the
	// message, so the match is the immediately preceding event).
	lastMsg    msgInfo
	hasLastMsg bool
	err        error
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		phaseTime:  make(map[string]units.Seconds),
		phaseCount: make(map[string]int),
	}
}

// fail records the first inconsistency; Profile reports it.
func (r *Recorder) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("profile: "+format, args...)
	}
}

func (r *Recorder) rank(id int) *rankRec {
	for id >= len(r.ranks) {
		r.ranks = append(r.ranks, &rankRec{})
	}
	return r.ranks[id]
}

// Switch implements vtime.Tracer (handoffs carry no attribution).
func (r *Recorder) Switch(from, to int, now units.Seconds) {}

// FlushWakes implements vtime.Tracer (batch folds carry no attribution).
func (r *Recorder) FlushWakes(k int, now units.Seconds) {}

// Park implements vtime.Tracer: the rank starts a blocked wait.
func (r *Recorder) Park(id int, tag string, now units.Seconds) {
	if id < 0 {
		r.fail("park of proc %d", id)
		return
	}
	rec := r.rank(id)
	if rec.parked {
		r.fail("rank %d parked twice (at %v, again at %v)", id, rec.parkAt, now)
		return
	}
	rec.parked, rec.parkAt, rec.parkTag = true, now, tag
}

// Wake implements vtime.Tracer: closes the woken rank's wait interval,
// recording who released it and (when the immediately preceding event
// was the releasing message's completion) which message.
func (r *Recorder) Wake(waker, woken int, now, wakerNow units.Seconds) {
	if woken < 0 {
		r.fail("wake of proc %d", woken)
		return
	}
	rec := r.rank(woken)
	if !rec.parked {
		r.fail("rank %d woken without park at %v", woken, now)
		return
	}
	w := wait{
		from: rec.parkAt, to: now, wakerAt: wakerNow,
		tag: rec.parkTag, phase: rec.phasePath, by: waker,
	}
	if r.hasLastMsg && r.lastMsg.arrived == now &&
		((r.lastMsg.src == waker && r.lastMsg.dst == woken) ||
			(r.lastMsg.src == woken && r.lastMsg.dst == waker)) {
		w.msg, w.hasMsg = r.lastMsg, true
	}
	rec.parked = false
	rec.waits = append(rec.waits, w)
}

// Idle implements vtime.Tracer: a clock jump with no park — resource
// contention or catching up to an already-completed operation.
func (r *Recorder) Idle(id int, tag string, from, to units.Seconds) {
	if id < 0 || to <= from {
		return
	}
	rec := r.rank(id)
	rec.waits = append(rec.waits, wait{
		from: from, to: to, wakerAt: to,
		tag: tag, phase: rec.phasePath, by: -1,
	})
}

// Message implements mpi.Tap: the latest completed message.
func (r *Recorder) Message(src, dst, tag int, size units.ByteSize,
	transport string, sent, arrived units.Seconds) {
	r.lastMsg = msgInfo{src: src, dst: dst, tag: tag, size: size,
		transport: transport, arrived: arrived}
	r.hasLastMsg = true
}

// PhaseBegin implements mpi.Tap.
func (r *Recorder) PhaseBegin(rank int, name string, start units.Seconds) {
	rec := r.rank(rank)
	rec.stack = append(rec.stack, phaseOpen{name: name, begin: start})
	if rec.phasePath == "" {
		rec.phasePath = name
	} else {
		rec.phasePath += ";" + name
	}
}

// PhaseEnd implements mpi.Tap. Closing an outermost
// span adds its duration to the per-collective totals.
func (r *Recorder) PhaseEnd(rank int, name string, end units.Seconds) {
	rec := r.rank(rank)
	n := len(rec.stack)
	if n == 0 || rec.stack[n-1].name != name {
		r.fail("rank %d closes phase %q without matching open", rank, name)
		return
	}
	top := rec.stack[n-1]
	rec.stack = rec.stack[:n-1]
	if n == 1 {
		rec.phasePath = ""
		r.phaseTime[name] += end - top.begin
		r.phaseCount[name]++
	} else {
		parts := make([]string, 0, n-1)
		for _, p := range rec.stack {
			parts = append(parts, p.name)
		}
		rec.phasePath = strings.Join(parts, ";")
	}
}
