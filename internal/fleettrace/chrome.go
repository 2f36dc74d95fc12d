package fleettrace

import (
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Chrome Trace Event export of a merged fleet run: one pid per process
// (workers as tracks), leases and wire attempts as "X" complete spans
// nested by time containment, requeues and other points as "i"
// instants. Timestamps are reference-clock wall microseconds, rebased
// so the run starts at 0 — absolute wall time is journal detail, not
// timeline shape. The document itself is internal/telemetry's
// (MarshalChrome); this file owns the fleet metadata, the span args,
// the category mapping and the event order.

// chromeFleetMetadata summarises the merge for the trace viewer.
type chromeFleetMetadata struct {
	// Clock names the timestamp domain; always "wall".
	Clock string `json:"clock"`
	// Reference names the process whose clock anchors the timeline.
	Reference string `json:"reference,omitempty"`
	// Procs counts merged journals; SkippedLines their torn tails.
	Procs        int `json:"procs"`
	SkippedLines int `json:"skippedLines,omitempty"`
}

// fleetSpanArgs is every fleet event's argument payload.
type fleetSpanArgs struct {
	Span    string `json:"span,omitempty"`
	Parent  string `json:"parent,omitempty"`
	Trace   string `json:"trace,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Label   string `json:"label,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// category buckets a journal event for the trace viewer's colouring.
func category(ev *telemetry.FleetEvent) string {
	switch {
	case ev.Name == "lease":
		return "lease"
	case ev.Name == "simulate":
		return "simulate"
	case ev.Name == "backoff":
		return "backoff"
	case ev.Name == "held":
		return "idle"
	case ev.Name == "serve":
		return "serve"
	case ev.Kind == telemetry.FleetPoint:
		return "point"
	default:
		return "wire"
	}
}

// Chrome renders the run as Chrome Trace Event Format JSON: a pure
// function of the merged journals, byte-identical however they were
// discovered.
func (r *Run) Chrome() ([]byte, error) {
	base := r.baseNs()
	var out []telemetry.ChromeEvent
	for pi := range r.Procs {
		p := &r.Procs[pi]
		out = append(out, telemetry.ChromeProcessName(pi, p.Name))
		for i := range p.Events {
			ev := &p.Events[i]
			ts := float64(p.AlignNs(ev.StartNs)-base) / 1e3
			ce := telemetry.ChromeEvent{
				Name: ev.Name, Cat: category(ev), Pid: pi,
				Ts: ts, ID: ev.Span,
				Args: fleetSpanArgs{
					Span: ev.Span, Parent: ev.Parent, Trace: ev.Trace,
					Outcome: ev.Outcome, Label: ev.Label, Detail: ev.Detail,
				},
			}
			if ev.Kind == telemetry.FleetSpan && ev.EndNs >= ev.StartNs {
				ce.Ph = "X"
				ce.Dur = float64(ev.EndNs-ev.StartNs) / 1e3
			} else {
				ce.Ph = "i"
				ce.S = "p"
			}
			out = append(out, ce)
		}
	}
	// Chrome sorts tracks by pid, but within one track the viewer wants
	// events in time order; ties break by (pid, seq) so the ordering —
	// and the bytes — never depend on input order.
	sortFleetEvents(out)
	data, err := telemetry.MarshalChrome(out, chromeFleetMetadata{
		Clock:        "wall",
		Reference:    r.Reference,
		Procs:        len(r.Procs),
		SkippedLines: r.SkippedLines,
	})
	if err != nil {
		return nil, fmt.Errorf("fleettrace: %w", err)
	}
	return data, nil
}

// baseNs finds the earliest aligned timestamp across the run, the
// timeline's zero.
func (r *Run) baseNs() int64 {
	base := int64(0)
	first := true
	for pi := range r.Procs {
		p := &r.Procs[pi]
		for i := range p.Events {
			ts := p.AlignNs(p.Events[i].StartNs)
			if first || ts < base {
				base, first = ts, false
			}
		}
	}
	return base
}

// sortFleetEvents orders trace events deterministically: metadata
// first, then by (timestamp, pid, longer-span-first, name).
func sortFleetEvents(events []telemetry.ChromeEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if (a.Ph == "M") != (b.Ph == "M") {
			return a.Ph == "M"
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur // enclosing span before its children
		}
		return a.Name < b.Name
	})
}
