package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet tracing: the wall-clock span/event layer for the
// coordinator–worker–registry plane. Where a cell's event log records
// *virtual* time inside one simulated cell, a FleetJournal records
// *wall* time around it — claims, leases, heartbeats, store GETs/PUTs, batch
// simulation — as structured JSONL that `hpcstudy fleetlog` merges
// across processes into one timeline (see internal/fleettrace).
//
// Timestamps are wall-clock nanoseconds read through the journal's
// clock, which is monotonic within the process (a wall step never
// reorders a journal). They are operational telemetry only: no
// simulated quantity, record, or figure ever depends on them, which is
// why every clock read below sits behind an explicit wallclock waiver.

// Fleet event kinds.
const (
	// FleetSpan is an interval [StartNs, EndNs] on one process.
	FleetSpan = "span"
	// FleetPoint is an instant (EndNs unused).
	FleetPoint = "point"
)

// FleetEvent is one journal record. The struct is registered in the
// repolint WireRoots, so every exported field stays json-tagged and
// the JSONL schema cannot drift silently. Field order is the wire
// order: encoding/json emits struct fields by declaration, which is
// what makes journals (and the golden test over them) byte-stable.
type FleetEvent struct {
	// Proc identifies the writing process ("coordinator", a worker
	// name); Seq is its per-journal monotonic sequence number, the
	// deterministic tie-break when merged timelines collide on a
	// timestamp.
	Proc string `json:"proc"`
	Seq  int64  `json:"seq"`
	// Kind is FleetSpan or FleetPoint; Name the operation ("claim",
	// "store-put", "simulate", "lease", "serve", ...).
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Span is this event's id ("<proc>#<n>", or a lease id); Parent
	// links to the enclosing or causing span — a cell's lease, a serve
	// span's originating client request. Trace carries the propagated
	// X-Hpc-Trace value on server-side events (the originating
	// process), so one request is findable in both journals.
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	// StartNs/EndNs bound the span in this process's clock (wall
	// nanoseconds); points carry only StartNs.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns,omitempty"`
	// Outcome is the typed result: "ok", "retry", "lease-gone",
	// "reset", "error", "miss", "expired", "completed", "failed",
	// "lost", "requeued".
	Outcome string `json:"outcome,omitempty"`
	// Label and Detail are display strings (worker name, cell label,
	// request path, cell counts) — never parsed, only rendered.
	Label  string `json:"label,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// FleetJournal appends FleetEvents as JSONL, one line per event,
// unbuffered — a SIGKILLed worker loses at most the line being
// written, and the reader side tolerates that torn tail. All methods
// are safe on a nil receiver (no-ops returning zero values), so call
// sites wire tracing unconditionally and a run without -fleetlog costs
// a nil check per event.
type FleetJournal struct {
	mu      sync.Mutex
	w       io.Writer
	closer  io.Closer
	proc    string
	clock   func() int64
	seq     int64
	spanSeq atomic.Int64
	drops   atomic.Int64
	dropped Counter
	hasCtr  bool
}

// wallNanos builds the default journal clock: wall-anchored but
// monotonic within the process, so a clock step (NTP, a VM migration)
// can never reorder a journal.
func wallNanos() func() int64 {
	//lint:allow wallclock -- fleet journal timestamps are operator observability; no simulated result, record, or figure reads them
	base := time.Now()
	return func() int64 {
		//lint:allow wallclock -- monotonic delta off the journal's base; same observability-only contract as the base read
		return base.Add(time.Since(base)).UnixNano()
	}
}

// NewFleetJournal builds a journal writing to w. A nil clock uses the
// monotonic wall clock; tests inject a fake for golden output.
func NewFleetJournal(w io.Writer, proc string, clock func() int64) *FleetJournal {
	if clock == nil {
		clock = wallNanos()
	}
	return &FleetJournal{w: w, proc: proc, clock: clock}
}

// sanitizeProc maps a process name to a safe journal file stem.
func sanitizeProc(proc string) string {
	out := []byte(proc)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// OpenFleetJournal creates (if needed) dir and opens the journal file
// <proc>.fleetlog.jsonl inside it, appending — a restarted coordinator
// extends its journal rather than erasing the run's history.
func OpenFleetJournal(dir, proc string) (*FleetJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: fleet journal: %w", err)
	}
	path := filepath.Join(dir, sanitizeProc(proc)+".fleetlog.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: fleet journal: %w", err)
	}
	j := NewFleetJournal(f, proc, nil)
	j.closer = f
	return j, nil
}

// Proc returns the journal's process identity ("" on nil).
func (j *FleetJournal) Proc() string {
	if j == nil {
		return ""
	}
	return j.proc
}

// Now reads the journal's clock (0 on nil): wall nanoseconds,
// monotonic within the process.
func (j *FleetJournal) Now() int64 {
	if j == nil {
		return 0
	}
	return j.clock()
}

// NewSpan allocates a process-unique span id ("" on nil). Ids embed
// the process name, so merged journals never collide.
func (j *FleetJournal) NewSpan() string {
	if j == nil {
		return ""
	}
	return fmt.Sprintf("%s#%d", j.proc, j.spanSeq.Add(1))
}

// CountDropsIn mirrors the journal's drop counter into a metrics
// registry, so a journal silently losing events is visible on the
// scrape surface.
func (j *FleetJournal) CountDropsIn(r *Registry) {
	if j == nil || r == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dropped = r.Counter("fleet_journal_dropped_events_total",
		"Fleet journal events lost to encode or write failures.")
	j.hasCtr = true
}

// Emit appends one event, filling Proc and Seq. A failed encode or
// write drops the event and counts the drop — observability must never
// fail the operation it observes.
func (j *FleetJournal) Emit(ev FleetEvent) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev.Proc = j.proc
	ev.Seq = j.seq
	data, err := json.Marshal(ev)
	if err == nil {
		_, err = j.w.Write(append(data, '\n'))
	}
	if err != nil {
		j.drops.Add(1)
		if j.hasCtr {
			j.dropped.Inc()
		}
	}
}

// Drops reports how many events were lost (0 on nil).
func (j *FleetJournal) Drops() int64 {
	if j == nil {
		return 0
	}
	return j.drops.Load()
}

// Close releases the journal file, if the journal owns one.
func (j *FleetJournal) Close() error {
	if j == nil || j.closer == nil {
		return nil
	}
	return j.closer.Close()
}
