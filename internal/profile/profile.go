// Package profile turns an execution's event log into explanations:
// where every virtual nanosecond of a cell went, per rank and per
// collective phase, and which chain of dependencies set the makespan.
//
// Build folds a cell's whole vtime.Log — every event, not just the
// newest ones the Chrome trace keeps — and classifies each rank's
// timeline into three categories:
//
//   - compute: the rank's clock advancing under model costs — solver
//     work, MPI packing/overhead CPU charges, container startup skew;
//   - p2pWait: blocked or idle in a point-to-point operation outside
//     any collective (park→wake intervals and completed-request
//     clock catch-ups);
//   - collectiveWait: the same wait states inside a collective phase
//     span (Barrier, Allreduce, ...).
//
// Wait intervals are closed from exact clock values the kernel itself
// used, so they tile each rank's [0, end] timeline exactly: interval
// boundaries are equal as float64s, not merely close. Category
// durations are sums over that exact partition, and compute is defined
// as total minus the wait sums — the per-rank categories therefore sum
// to the rank's total virtual time by construction, and Build
// validates the partition (monotone, in-bounds, nothing left open)
// before reporting.
package profile

import (
	"fmt"

	"repro/internal/units"
	"repro/internal/vtime"
)

// wait is one closed wait interval on a rank's timeline. It holds no
// pointers: names are indices into the log's and the recorder's tables.
type wait struct {
	from, to units.Seconds
	// wakerAt is the waker's clock at the releasing action (the causal
	// source time); equal to `to` for idle catch-ups with no waker.
	wakerAt units.Seconds
	tag     uint16
	// phase indexes the recorder's table of ";"-joined collective span
	// stacks the rank was inside (0: outside collectives).
	phase int32
	// by is the releasing rank, -1 for idle catch-ups.
	by int32
	// msg indexes the recorder's table of the point-to-point messages
	// whose completion released a blocked rank, -1 for none.
	msg int32
}

// rankRec accumulates one rank's attribution state during the fold.
type rankRec struct {
	parked  bool
	parkAt  units.Seconds
	parkTag uint16
	stack   []phaseOpen
	phase   int32
	waits   []wait
}

// phaseOpen is one open collective span; outer is the enclosing path.
type phaseOpen struct {
	name  uint16
	begin units.Seconds
	outer int32
}

// recorder is the attribution state machine the log replays through:
// per-rank wait intervals and collective phase spans.
type recorder struct {
	log   *vtime.Log
	ranks []rankRec
	// paths holds the phase paths waits refer to (paths[0] is ""),
	// pathOf finds one by enclosing path and innermost span name.
	paths  []string
	pathOf map[phaseStep]int32
	// phase time aggregation: outermost span durations per collective.
	phaseTime  map[string]units.Seconds
	phaseCount map[string]int
	// msgs holds the messages waits refer to. last is the latest
	// completed message, which a wake is matched against (the MPI
	// layer wakes the released rank immediately after logging the
	// message); lastRef is its index in msgs once a wait refers to it.
	msgs    []vtime.Event
	last    vtime.Event
	hasLast bool
	lastRef int32
}

type phaseStep struct {
	outer int32
	name  uint16
}

// event folds one logged event; an event inconsistent with the ones
// before it is an error. Switches and wake-batch flushes carry no
// attribution.
func (r *recorder) event(e vtime.Event) error {
	id := e.A
	switch e.Kind {
	case vtime.EvSwitch, vtime.EvFlush:
		return nil
	case vtime.EvMessage:
		r.last, r.hasLast, r.lastRef = e, true, -1
		return nil
	case vtime.EvWake:
		id = e.B
	}
	if id < 0 || int(id) >= len(r.ranks) {
		return fmt.Errorf("profile: events for rank %d beyond world size %d", id, len(r.ranks))
	}
	rec := &r.ranks[id]
	switch e.Kind {
	case vtime.EvPark:
		// The rank starts a blocked wait.
		if rec.parked {
			return fmt.Errorf("profile: rank %d parked twice (at %v, again at %v)", id, rec.parkAt, e.T0)
		}
		rec.parked, rec.parkAt, rec.parkTag = true, e.T0, e.Name
	case vtime.EvWake:
		// The woken rank's wait closes, recording who released it and
		// (when the latest message joins the two ranks and arrived at
		// the wake) which message.
		if !rec.parked {
			return fmt.Errorf("profile: rank %d woken without park at %v", id, e.T0)
		}
		w := wait{from: rec.parkAt, to: e.T0, wakerAt: e.T1,
			tag: rec.parkTag, phase: rec.phase, by: e.A, msg: -1}
		if m := r.last; r.hasLast && m.T1 == e.T0 &&
			((m.A == e.A && m.B == e.B) || (m.A == e.B && m.B == e.A)) {
			if r.lastRef < 0 {
				r.lastRef = int32(len(r.msgs))
				r.msgs = append(r.msgs, m)
			}
			w.msg = r.lastRef
		}
		rec.parked = false
		rec.waits = append(rec.waits, w)
	case vtime.EvIdle:
		// A clock jump with no park: catching up to an already-completed
		// operation.
		if e.T1 > e.T0 {
			rec.waits = append(rec.waits, wait{from: e.T0, to: e.T1, wakerAt: e.T1,
				tag: e.Name, phase: rec.phase, by: -1, msg: -1})
		}
	case vtime.EvPhaseBegin:
		rec.stack = append(rec.stack, phaseOpen{name: e.Name, begin: e.T0, outer: rec.phase})
		rec.phase = r.path(rec.phase, e.Name)
	case vtime.EvPhaseEnd:
		// Closing an outermost span adds its duration to the
		// per-collective totals.
		n := len(rec.stack)
		if n == 0 || rec.stack[n-1].name != e.Name {
			return fmt.Errorf("profile: rank %d closes phase %q without matching open", id, r.log.Name(e.Name))
		}
		top := rec.stack[n-1]
		rec.stack, rec.phase = rec.stack[:n-1], top.outer
		if n == 1 {
			name := r.log.Name(e.Name)
			r.phaseTime[name] += e.T0 - top.begin
			r.phaseCount[name]++
		}
	}
	return nil
}

// path returns the phase path of span name entered inside path outer.
func (r *recorder) path(outer int32, name uint16) int32 {
	step := phaseStep{outer, name}
	id, ok := r.pathOf[step]
	if !ok {
		path := r.log.Name(name)
		if outer != 0 {
			path = r.paths[outer] + ";" + path
		}
		id = int32(len(r.paths))
		r.paths = append(r.paths, path)
		r.pathOf[step] = id
	}
	return id
}
