package fleettrace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/report"
	"repro/internal/telemetry"
)

// Per-worker wall-clock attribution. Each process's observed span —
// [first event start, last event end] in its own clock — is partitioned
// into four categories by a boundary sweep over its journal spans:
//
//	simulate  running cells (a "simulate" span covers the instant)
//	backoff   waiting out a retry delay
//	wire      a request attempt in flight (claim, heartbeat, GET, PUT)
//	idle      a "held" span (the coordinator holding a claim until work
//	          frees up), or none of the above — between requests
//
// Instants covered by several spans resolve by fixed priority
// (held > backoff > wire > simulate > uncovered): a backoff or wire
// wait inside a lease is wire time, not simulation, and the held part
// of a claim's round trip is idle, not wire. The four categories tile
// the observed span *exactly* — the same integer-nanosecond contract
// internal/profile enforces for virtual time — and Validate rechecks
// the sum, so a broken partition is an error, never a quietly wrong
// table.
//
// Category boundaries are per-process durations, so no clock alignment
// enters attribution: each worker is measured against its own clock.

// Attribution categories, in render order.
const (
	CatSimulate = "simulate"
	CatWire     = "wire"
	CatBackoff  = "backoff"
	CatIdle     = "idle"
)

// WorkerAttribution is one process's wall-clock partition (all values
// integer nanoseconds; the four categories sum to SpanNs exactly).
type WorkerAttribution struct {
	Proc       string `json:"proc"`
	SpanNs     int64  `json:"span_ns"`
	SimulateNs int64  `json:"simulate_ns"`
	WireNs     int64  `json:"wire_ns"`
	BackoffNs  int64  `json:"backoff_ns"`
	IdleNs     int64  `json:"idle_ns"`
	// Cells counts simulate spans; Requests wire attempt spans.
	Cells    int `json:"cells"`
	Requests int `json:"requests"`
}

// Validate rechecks the exact-tiling contract.
func (a *WorkerAttribution) Validate() error {
	sum := a.SimulateNs + a.WireNs + a.BackoffNs + a.IdleNs
	if sum != a.SpanNs {
		return fmt.Errorf("fleettrace: %s: categories sum to %d ns but the observed span is %d ns (broken partition)",
			a.Proc, sum, a.SpanNs)
	}
	return nil
}

// categoryOf buckets one span event for attribution, "" for events that
// carry no attributable interval (points, serve spans — the server's
// time is the client's wire wait, already counted client-side).
func categoryOf(ev *telemetry.FleetEvent) string {
	if ev.Kind != telemetry.FleetSpan || ev.EndNs < ev.StartNs {
		return ""
	}
	switch {
	case ev.Name == "simulate":
		return CatSimulate
	case ev.Name == "backoff":
		return CatBackoff
	case ev.Name == "held":
		return CatIdle
	case wireCategory(ev.Name):
		return CatWire
	}
	return ""
}

// priority resolves overlap: higher wins the instant.
func priority(cat string) int {
	switch cat {
	case CatIdle:
		return 4
	case CatBackoff:
		return 3
	case CatWire:
		return 2
	case CatSimulate:
		return 1
	}
	return 0
}

// Attribution partitions every process's observed wall-clock span.
// Processes whose journals hold only points (nothing to attribute) get
// a zero span.
func (r *Run) Attribution() ([]WorkerAttribution, error) {
	out := make([]WorkerAttribution, 0, len(r.Procs))
	for pi := range r.Procs {
		a, err := attributeProc(&r.Procs[pi])
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// attributeProc runs the boundary sweep for one process: collect every
// span boundary, then charge each elementary interval to the
// highest-priority category covering it.
func attributeProc(p *Proc) (WorkerAttribution, error) {
	a := WorkerAttribution{Proc: p.Name}
	type span struct {
		start, end int64
		cat        string
	}
	var spans []span
	first, last := int64(0), int64(0)
	seen := false
	for i := range p.Events {
		ev := &p.Events[i]
		end := ev.EndNs
		if ev.Kind != telemetry.FleetSpan || end < ev.StartNs {
			end = ev.StartNs
		}
		if !seen || ev.StartNs < first {
			first = ev.StartNs
		}
		if !seen || end > last {
			last = end
		}
		seen = true
		switch cat := categoryOf(ev); cat {
		case "":
		default:
			spans = append(spans, span{ev.StartNs, end, cat})
			if cat == CatSimulate {
				a.Cells++
			}
			if cat == CatWire {
				a.Requests++
			}
		}
	}
	if !seen {
		return a, nil
	}
	a.SpanNs = last - first
	bounds := make([]int64, 0, 2*len(spans)+2)
	bounds = append(bounds, first, last)
	for _, s := range spans {
		bounds = append(bounds, s.start, s.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo || hi <= first || lo >= last {
			continue
		}
		cat := "" // uncovered: idle
		for _, s := range spans {
			if s.start <= lo && hi <= s.end && priority(s.cat) > priority(cat) {
				cat = s.cat
			}
		}
		d := hi - lo
		switch cat {
		case CatSimulate:
			a.SimulateNs += d
		case CatWire:
			a.WireNs += d
		case CatBackoff:
			a.BackoffNs += d
		default:
			a.IdleNs += d
		}
	}
	if err := a.Validate(); err != nil {
		return a, err
	}
	return a, nil
}

// RenderAttribution writes the per-worker table.
func RenderAttribution(w io.Writer, attrs []WorkerAttribution) {
	t := attribTable(attrs)
	t.Render(w)
}

// AttributionCSV writes the table as CSV.
func AttributionCSV(w io.Writer, attrs []WorkerAttribution) {
	attribTable(attrs).CSV(w)
}

func attribTable(attrs []WorkerAttribution) *report.Table {
	t := report.NewTable("Fleet wall-clock attribution",
		"process", "span", "simulate", "wire", "backoff", "idle", "cells", "requests")
	for i := range attrs {
		a := &attrs[i]
		t.AddRow(a.Proc, ns(a.SpanNs), ns(a.SimulateNs), ns(a.WireNs),
			ns(a.BackoffNs), ns(a.IdleNs), a.Cells, a.Requests)
	}
	return t
}

// ns renders integer nanoseconds as a duration string.
func ns(v int64) string { return time.Duration(v).String() }
